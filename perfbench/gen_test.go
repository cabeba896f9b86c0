package main

import (
	"reflect"
	"testing"
)

// draw generates one round's load and ops the way runRound does, with
// the load's commit times supplied as if the database had handed them out.
func draw(t *testing.T, workload string, seed int64, n int) ([]step, [][]op) {
	t.Helper()
	r := newRNG(seed, 0)
	steps, pl := newPlan(workload, r)
	var times []uint64
	for _, s := range steps {
		if s.commit {
			times = append(times, uint64(len(times)+1))
		}
	}
	return steps, pl.ops(r, times, n)
}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range []string{"send", "commit", "query"} {
		s1, o1 := draw(t, w, 7, 200)
		s2, o2 := draw(t, w, 7, 200)
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) {
			t.Errorf("%s: seed 7 drew two different inputs", w)
		}
		_, o3 := draw(t, w, 8, 200)
		if reflect.DeepEqual(o1, o3) {
			t.Errorf("%s: seeds 7 and 8 drew the same ops", w)
		}
	}
}

func TestQueryMixHasExactShares(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		_, ops := draw(t, "query", seed, 1000)
		count := map[string]int{}
		for _, o := range ops[0] {
			count[o.kind]++
		}
		want := map[string]int{"eq": 450, "range": 150, "join": 50, "at": 350}
		if !reflect.DeepEqual(count, want) {
			t.Errorf("seed %d: kinds %v, want %v", seed, count, want)
		}
	}
}

func TestCommitOpsStayOnTheirOwnAccounts(t *testing.T) {
	_, ops := draw(t, "commit", 3, 400)
	per := commitAccounts / commitConns
	for c, list := range ops {
		for _, o := range list {
			for _, d := range o.deposits {
				if d.account < 1+c*per || d.account > (c+1)*per {
					t.Fatalf("connection %d credits account %d outside its half", c, d.account)
				}
			}
		}
	}
}

func TestSalaryAtFollowsTheSchedule(t *testing.T) {
	m := &queryModel{
		histInitial: []int64{100, 200},
		histUpdates: [][][2]int64{{{1, 110}}, {{2, 220}}, {{1, 130}}},
	}
	times := []uint64{10, 11, 12, 13}
	for _, c := range []struct {
		e    int
		t    uint64
		want int64
	}{{1, 10, 100}, {1, 11, 110}, {1, 12, 110}, {1, 13, 130}, {2, 11, 200}, {2, 12, 220}, {2, 99, 220}} {
		if got := m.salaryAt(c.e, c.t, times); got != c.want {
			t.Errorf("employee %d at t%d: %d, want %d", c.e, c.t, got, c.want)
		}
	}
}
