package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/gemstone"
	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/obs"
	"repro/internal/oop"
	"repro/internal/path"
)

// spec sizes a workload. A run issues opsPerSecond × --seconds ops,
// split into whole rounds of equal size; the rates were set so that the
// timed phase lasts roughly --seconds on a 2-vCPU Xeon (0.7–1.05 times
// it, as the machine's load allows). Each round bulk-loads a fresh
// database, so every run does the same work whatever the program's
// speed: a faster commit path finishes sooner instead of writing more
// history and more tracks.
type spec struct {
	conns        int
	opsPerSecond int
	roundSeconds int // seconds of --seconds each round covers
}

var specs = map[string]spec{
	"send":   {conns: 1, opsPerSecond: 550, roundSeconds: 1},
	"commit": {conns: commitConns, opsPerSecond: 2400, roundSeconds: 1},
	"query":  {conns: 1, opsPerSecond: 1000, roundSeconds: 1},
}

// rounds and opsPerRound split a run of the given length.
func (s spec) rounds(seconds int) int { return max(2, seconds/s.roundSeconds) }

func (s spec) opsPerRound(seconds int) int {
	n := s.opsPerSecond * seconds / s.rounds(seconds)
	return max(s.conns, n-n%s.conns)
}

// plan is one round of a workload: the model the generator keeps, the
// ops it draws once the load's commit times are known, and the checks
// run on the state the round leaves behind.
type plan interface {
	ops(r *rng, loadTimes []uint64, n int) [][]op
	// verify checks what the round left behind. It may stop e.
	verify(e *env, ph *phaseOut, rp *replayOut) error
}

func newPlan(workload string, r *rng) ([]step, plan) {
	switch workload {
	case "send":
		steps, m := sendSetup(r)
		return steps, sendPlan{m}
	case "commit":
		steps, m := commitSetup(r)
		return steps, &commitPlan{m: m}
	default:
		steps, m := querySetup(r)
		return steps, queryPlan{m}
	}
}

type sendPlan struct{ m *sendModel }

func (p sendPlan) ops(r *rng, _ []uint64, n int) [][]op     { return sendOps(r, p.m, n) }
func (p sendPlan) verify(*env, *phaseOut, *replayOut) error { return nil }

type queryPlan struct{ m *queryModel }

func (p queryPlan) ops(r *rng, t []uint64, n int) [][]op     { return queryOps(r, p.m, t, n) }
func (p queryPlan) verify(*env, *phaseOut, *replayOut) error { return nil }

type commitPlan struct {
	m     *commitModel
	tLoad uint64
}

func (p *commitPlan) ops(r *rng, t []uint64, n int) [][]op {
	p.tLoad = t[len(t)-1]
	return commitOps(r, p.m, n)
}

// verify checks the gap-free clock, then closes the server and the
// database, reopens the database from its files alone, and checks every
// account's balance and its full balance history against the ledger.
func (p *commitPlan) verify(e *env, ph *phaseOut, rp *replayOut) error {
	var all []uint64
	for c := range ph.times {
		for i, t := range ph.times[c] {
			if ph.errs[c][i] == nil {
				all = append(all, t)
			}
		}
	}
	extra := make(map[int][]histEntry) // replay credits: account -> (time, amount)
	for _, rc := range rp.commits {
		all = append(all, rc.t)
		for _, d := range rc.deps {
			extra[d.account] = append(extra[d.account], histEntry{t: rc.t, v: d.amount})
		}
	}
	if err := checkGapFree(all, p.tLoad); err != nil {
		return err
	}
	if last := uint64(e.db.Core().TxnManager().LastCommitted()); last != p.tLoad+uint64(len(all)) {
		return fmt.Errorf("last committed t%d, but %d commits followed the load at t%d", last, len(all), p.tLoad)
	}
	if err := e.stop(); err != nil {
		return err
	}
	db, err := openDB(e.fs, nil)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	se, err := db.Login(gemstone.SystemUser, password)
	if err != nil {
		return fmt.Errorf("reopen login: %w", err)
	}
	defer se.Close()
	for a := 1; a <= commitAccounts; a++ {
		want := []histEntry{{t: p.tLoad, v: p.m.initial[a-1]}}
		var credits []histEntry
		for _, c := range p.m.credits[a-1] {
			if ph.errs[c.conn][c.op] == nil {
				credits = append(credits, histEntry{t: ph.times[c.conn][c.op], v: c.amount})
			}
		}
		credits = append(credits, extra[a]...)
		sort.Slice(credits, func(i, j int) bool { return credits[i].t < credits[j].t })
		for _, c := range credits {
			want = append(want, histEntry{t: c.t, v: want[len(want)-1].v + c.v})
		}
		acct, err := se.Path(fmt.Sprintf("World!accts!%d", a), nil)
		if err != nil {
			return fmt.Errorf("account %d after reopen: %w", a, err)
		}
		bal, err := se.Path(fmt.Sprintf("World!accts!%d!balance", a), nil)
		if err != nil || !bal.IsSmallInt() || bal.Int() != want[len(want)-1].v {
			return fmt.Errorf("account %d: balance %v after reopen, ledger says %d (%v)", a, bal, want[len(want)-1].v, err)
		}
		hist, err := se.History(acct, "balance")
		if err != nil {
			return fmt.Errorf("account %d history: %w", a, err)
		}
		got := make([]histEntry, len(hist))
		for i, h := range hist {
			got[i] = histEntry{t: uint64(h.T), v: h.Value.Int()}
		}
		if err := checkHistory(fmt.Sprintf("account %d", a), got, want); err != nil {
			return err
		}
	}
	return nil
}

// phaseOut is what the timed phase saw.
type phaseOut struct {
	lat       []int64 // ns from send to the op's last reply, ops that succeeded
	elapsed   time.Duration
	cpu       time.Duration
	replies   [][]string
	times     [][]uint64 // commit time of each op, per connection
	errs      [][]error
	execRTT   int64 // ns, summed over the ops' Execute requests
	attempted int
	failed    int
}

func opID(c, i int) int64 { return int64(c)<<32 | int64(i) }

// drive runs the timed phase closed-loop: one goroutine per host
// connection sends its next op only when the previous one has replied.
// recs, when non-nil, holds one span recorder per connection.
func drive(conns []*conn, ops [][]op, recs []*recorder) *phaseOut {
	ph := &phaseOut{
		replies: make([][]string, len(ops)),
		times:   make([][]uint64, len(ops)),
		errs:    make([][]error, len(ops)),
	}
	lats := make([][]int64, len(ops))
	rtts := make([]int64, len(ops))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range ops {
		ph.replies[c] = make([]string, len(ops[c]))
		ph.times[c] = make([]uint64, len(ops[c]))
		ph.errs[c] = make([]error, len(ops[c]))
		lats[c] = make([]int64, 0, len(ops[c]))
		var rec *recorder
		if recs != nil {
			rec = recs[c]
		}
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			rs := conns[c].rs
			<-start
			for i := range ops[c] {
				o := &ops[c][i]
				id := opID(c, i)
				root := rec.begin("op."+o.kind, id, -1)
				w := rec.begin("wire.execute", id, root)
				t0 := time.Now()
				reply, _, err := rs.Execute(o.src)
				t1 := time.Now()
				rec.end(w)
				rtts[c] += int64(t1.Sub(t0))
				if err == nil && o.commit {
					w = rec.begin("wire.commit", id, root)
					ph.times[c][i], err = rs.Commit()
					rec.end(w)
				}
				done := time.Now()
				if err == nil && o.abort {
					w = rec.begin("wire.abort", id, root)
					err = rs.Abort()
					rec.end(w)
				}
				rec.end(root)
				if err != nil {
					ph.errs[c][i] = err
					// A failed block leaves its transaction behind; drop it
					// so the next op starts clean.
					_ = rs.Abort()
					continue
				}
				ph.replies[c][i] = reply
				lats[c] = append(lats[c], int64(done.Sub(t0)))
			}
		}(c, rec)
	}
	cpu0, t0 := cpuTime(), time.Now()
	close(start)
	wg.Wait()
	ph.elapsed, ph.cpu = time.Since(t0), cpuTime()-cpu0
	for c := range ops {
		ph.lat = append(ph.lat, lats[c]...)
		ph.execRTT += rtts[c]
		ph.attempted += len(ops[c])
		for _, err := range ph.errs[c] {
			if err != nil {
				ph.failed++
			}
		}
	}
	return ph
}

// replayCap bounds how many ops per connection a traced round replays
// through the in-process entry points.
const replayCap = 300

type replayCommit struct {
	t    uint64
	deps []deposit
}

// Indexes of replayOut.sum: nanoseconds spent at each entry point, and
// the counts the per-layer metrics divide them by.
const (
	rpOpalNS = iota
	rpOpalN
	rpOpalSendNS // opal time of ops that send messages
	rpSends
	rpParseNS
	rpOptimizeNS
	rpExecNS
	rpQueries
	rpMembers
	rpRows
	rpProbes
	rpPathNS
	rpPaths
	rpStoreNS
	rpStores
	rpCommitNS
	rpCommits
	rpSums
)

// replayOut is what the traced replay measured at each layer's entry point.
type replayOut struct {
	sum     [rpSums]int64
	commits []replayCommit
}

// replay issues each op's input at the layers below the wire in turn,
// on an embedded session of the same database, timing every call:
// Interp.Execute of the op's source, then for a query op calculus.Parse,
// algebra.Optimize and Plan.Exec of its calculus text, for an @T read
// path.EvalString, and for a deposit op core.Session.Store of each
// credit and Commit. A layer reachable only through another is thus
// timed on its own, and the difference between adjacent entry points is
// the outer layer's own share.
func replay(db *gemstone.DB, ops [][]op, rec *recorder) (*replayOut, error) {
	se, err := db.Login(gemstone.SystemUser, password)
	if err != nil {
		return nil, fmt.Errorf("replay login: %w", err)
	}
	defer se.Close()
	cs := se.Core()
	env := path.GlobalsEnv{Session: cs}
	balance := cs.Symbol("balance")
	rp := &replayOut{}
	for i := 0; i < replayCap; i++ {
		for c := range ops {
			if i >= len(ops[c]) {
				continue
			}
			o := &ops[c][i]
			id := opID(c, i)
			root := rec.begin("replay."+o.kind, id, -1)
			s := rec.begin("opal.execute", id, root)
			_, err := se.Interp().Execute(o.src)
			d := rec.end(s)
			se.Abort() // the replayed block's writes and results are discarded
			if err != nil {
				return nil, fmt.Errorf("replay %s through Interp.Execute: %w", o.kind, err)
			}
			rp.sum[rpOpalNS] += int64(d)
			rp.sum[rpOpalN]++
			if o.sends > 0 {
				rp.sum[rpOpalSendNS] += int64(d)
				rp.sum[rpSends] += int64(o.sends)
			}
			switch o.kind {
			case "eq", "range", "join":
				s = rec.begin("calculus.parse", id, root)
				q, err := calculus.Parse(o.query)
				rp.sum[rpParseNS] += int64(rec.end(s))
				if err != nil {
					return nil, fmt.Errorf("replay parse: %w", err)
				}
				s = rec.begin("algebra.optimize", id, root)
				p, err := algebra.Optimize(q, cs)
				rp.sum[rpOptimizeNS] += int64(rec.end(s))
				if err != nil {
					return nil, fmt.Errorf("replay optimize: %w", err)
				}
				s = rec.begin("algebra.exec", id, root)
				rows, st, err := p.Exec(cs)
				rp.sum[rpExecNS] += int64(rec.end(s))
				if err != nil {
					return nil, fmt.Errorf("replay exec: %w", err)
				}
				if want := len(strings.Fields(o.want)); len(rows) != want {
					return nil, fmt.Errorf("replay %s: Plan.Exec returned %d rows, model says %d", o.kind, len(rows), want)
				}
				rp.sum[rpQueries]++
				rp.sum[rpRows] += int64(len(rows))
				rp.sum[rpMembers] += int64(st.MembersScanned)
				rp.sum[rpProbes] += int64(st.IndexProbes)
			case "at":
				s = rec.begin("path.eval_at", id, root)
				v, err := path.EvalString(cs, o.path, env)
				rp.sum[rpPathNS] += int64(rec.end(s))
				if err != nil {
					return nil, fmt.Errorf("replay path: %w", err)
				}
				if !v.IsSmallInt() || fmt.Sprint(v.Int()) != o.want {
					return nil, fmt.Errorf("replay %s read %v, model says %s", o.path, v, o.want)
				}
				rp.sum[rpPaths]++
			case "deposit":
				for _, dep := range o.deposits {
					acct, err := path.EvalString(cs, fmt.Sprintf("World!accts!%d", dep.account), env)
					if err != nil {
						return nil, fmt.Errorf("replay account %d: %w", dep.account, err)
					}
					cur, _, err := cs.Fetch(acct, balance)
					if err != nil {
						return nil, err
					}
					s = rec.begin("core.store", id, root)
					err = cs.Store(acct, balance, oop.MustInt(cur.Int()+dep.amount))
					rp.sum[rpStoreNS] += int64(rec.end(s))
					if err != nil {
						return nil, fmt.Errorf("replay store: %w", err)
					}
					rp.sum[rpStores]++
				}
				s = rec.begin("core.commit", id, root)
				t, err := cs.Commit()
				rp.sum[rpCommitNS] += int64(rec.end(s))
				if err != nil {
					return nil, fmt.Errorf("replay commit: %w", err)
				}
				rp.sum[rpCommits]++
				rp.commits = append(rp.commits, replayCommit{t: uint64(t), deps: o.deposits})
			}
			rec.end(root)
		}
	}
	return rp, nil
}

// roundOut is one round's contribution to the run's figures.
type roundOut struct {
	setup     time.Duration
	ph        *phaseOut
	disk      int64
	heap      uint64   // live heap bytes after the timed phase
	problems  []string // wrong answers and broken invariants
	failures  []string // ops that returned an error, counted in failed
	traced    bool
	before    *obs.Snapshot // engine counters around the timed phase
	after     *obs.Snapshot
	ioBefore  ioSample // wrapper counts around the timed phase
	ioAfter   ioSample
	rp        *replayOut
	recs      []*recorder
	replayRec *recorder
}

type ioSample struct{ writes, bytes, syncs, writeNS, syncNS int64 }

func (c *ioCounts) sample() ioSample {
	if c == nil {
		return ioSample{}
	}
	return ioSample{c.writes.Load(), c.bytes.Load(), c.syncs.Load(), c.writeNS.Load(), c.syncNS.Load()}
}

// runRound loads a fresh database, runs the timed phase and, when traced,
// the replay, then checks everything the round produced.
func runRound(workload string, seed int64, round, nOps int, traced bool, epoch time.Time) (*roundOut, error) {
	sp := specs[workload]
	r := newRNG(seed, round)
	steps, pl := newPlan(workload, r)
	fs := newMemFS()
	var counts *ioCounts
	if traced {
		counts = &ioCounts{}
	}
	t0 := time.Now()
	e, err := startEnv(fs, counts, sp.conns)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	loadTimes, err := e.load(steps)
	if err != nil {
		return nil, err
	}
	out := &roundOut{setup: time.Since(t0), traced: traced}
	ops := pl.ops(r, loadTimes, nOps)

	if traced {
		for range ops {
			out.recs = append(out.recs, newRecorder(epoch))
		}
	}
	out.before, out.ioBefore = e.db.Stats(), counts.sample()
	ph := drive(e.conns, ops, out.recs)
	out.after, out.ioAfter = e.db.Stats(), counts.sample()
	out.ph = ph
	out.disk = fs.Bytes()
	out.heap = liveHeap()
	for c := range ops {
		for i := range ops[c] {
			if ph.errs[c][i] != nil {
				out.failures = append(out.failures, fmt.Sprintf("op %d/%d: %v", c, i, ph.errs[c][i]))
				continue
			}
			if err := checkReply(&ops[c][i], ph.replies[c][i]); err != nil {
				out.problems = append(out.problems, err.Error())
			}
		}
	}
	rp := &replayOut{}
	if traced {
		out.replayRec = newRecorder(epoch)
		if rp, err = replay(e.db, ops, out.replayRec); err != nil {
			return nil, err
		}
		out.rp = rp
		// The wrapper and the store count the same writes and syncs.
		snap := e.db.Stats()
		io := counts.sample()
		if w, s := uint64(io.bytes), snap.Counter("store.track.bytes.written"); w != s {
			out.problems = append(out.problems, fmt.Sprintf("wrapper saw %d bytes written, store.track.bytes.written says %d", w, s))
		}
		if w, s := uint64(io.syncs), snap.Counter("store.syncs"); w != s {
			out.problems = append(out.problems, fmt.Sprintf("wrapper saw %d syncs, store.syncs says %d", w, s))
		}
	}
	if err := pl.verify(e, ph, rp); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	if err := e.stop(); err != nil {
		return nil, err
	}
	return out, nil
}
