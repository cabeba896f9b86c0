package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/gemstone"
	"repro/internal/executor"
	"repro/internal/store"
	"repro/internal/wire"
)

// password is the bootstrap administrator's password of every benchmark
// database.
const password = "swordfish"

// env is one database served on loopback: the memory-backed replica
// files, the open database, its wire server and the host connections.
type env struct {
	fs     *memFS
	db     *gemstone.DB
	srv    *wire.Server
	conns  []*conn
	closed bool
}

// conn is one host program's link: a client and its remote session.
type conn struct {
	c  *wire.Client
	rs *wire.RemoteSession
}

// dbDir names the database inside the memory-backed file system; the
// store only ever reaches it through the OpenReplica hook.
const dbDir = "perfbench-db"

func openDB(fs *memFS, counts *ioCounts) (*gemstone.DB, error) {
	var open store.OpenReplicaFunc = fs.OpenReplica
	if counts != nil {
		open = countingOpen(open, counts)
	}
	return gemstone.Open(dbDir, gemstone.Options{SystemPassword: password, OpenReplica: open})
}

// startEnv bootstraps a fresh database in fs, serves it on a loopback
// port and logs nconns host sessions in.
func startEnv(fs *memFS, counts *ioCounts, nconns int) (*env, error) {
	db, err := openDB(fs, counts)
	if err != nil {
		return nil, fmt.Errorf("open database: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{fs: fs, db: db, srv: wire.Serve(ln, executor.New(db))}
	for i := 0; i < nconns; i++ {
		c, err := wire.DialTimeout(ln.Addr().String(), 5*time.Second)
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		rs, err := c.Login(gemstone.SystemUser, password)
		if err != nil {
			c.Close()
			e.stop()
			return nil, fmt.Errorf("login: %w", err)
		}
		e.conns = append(e.conns, &conn{c: c, rs: rs})
	}
	return e, nil
}

// stop closes the connections, the server and the database, and waits
// for every goroutine they started. Stopping twice is a no-op.
func (e *env) stop() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var errs []error
	for _, c := range e.conns {
		if err := c.rs.Logout(); err != nil {
			errs = append(errs, fmt.Errorf("logout: %w", err))
		}
		c.c.Close()
	}
	e.conns = nil
	if err := e.srv.Shutdown(10 * time.Second); err != nil && !errors.Is(err, net.ErrClosed) {
		errs = append(errs, fmt.Errorf("server shutdown: %w", err))
	}
	if err := e.db.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close database: %w", err))
	}
	return errors.Join(errs...)
}

// load runs the bulk-load steps over the first connection and returns
// the commit time of each step that commits.
func (e *env) load(steps []step) ([]uint64, error) {
	rs := e.conns[0].rs
	var times []uint64
	for i, s := range steps {
		if _, _, err := rs.Execute(s.src); err != nil {
			return nil, fmt.Errorf("load step %d: %w", i, err)
		}
		if s.commit {
			t, err := rs.Commit()
			if err != nil {
				return nil, fmt.Errorf("load step %d commit: %w", i, err)
			}
			times = append(times, t)
		}
	}
	// The other sessions still read the state from before the load; an
	// abort moves each to the newest committed state, as a host program
	// does before it starts work.
	for _, c := range e.conns[1:] {
		if err := c.rs.Abort(); err != nil {
			return nil, fmt.Errorf("refresh session: %w", err)
		}
	}
	return times, nil
}
