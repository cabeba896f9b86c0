package main

import "repro/internal/obs"

// layerSums accumulates, over the traced rounds of a run, everything the
// per-layer metrics are ratios of.
type layerSums struct {
	ops, execRTT         float64
	counters, hsum, hcnt map[string]float64
	io                   ioSample
	rp                   [rpSums]float64
	tracedOps, untraced  float64
	tracedSec, untracSec float64
}

var (
	sumCounters = []string{"wire.bytes.in", "wire.bytes.out", "directory.index.lookups", "txn.commits", "txn.fastpath.commits"}
	sumHists    = []string{"executor.execute.ns", "txn.validate.ns", "txn.group.size", "txn.gather.spins", "store.apply.ns"}
)

func (s *layerSums) addRound(o *roundOut) {
	if !o.traced {
		s.untraced += float64(len(o.ph.lat))
		s.untracSec += o.ph.elapsed.Seconds()
		return
	}
	s.tracedOps += float64(len(o.ph.lat))
	s.tracedSec += o.ph.elapsed.Seconds()
	s.ops += float64(o.ph.attempted)
	s.execRTT += float64(o.ph.execRTT)
	for _, n := range sumCounters {
		s.counters[n] += float64(o.after.Counter(n) - o.before.Counter(n))
	}
	for _, n := range sumHists {
		a, b := hist(o.after, n), hist(o.before, n)
		s.hsum[n] += float64(a.Sum - b.Sum)
		s.hcnt[n] += float64(a.Count - b.Count)
	}
	s.io.writes += o.ioAfter.writes - o.ioBefore.writes
	s.io.bytes += o.ioAfter.bytes - o.ioBefore.bytes
	s.io.syncs += o.ioAfter.syncs - o.ioBefore.syncs
	s.io.writeNS += o.ioAfter.writeNS - o.ioBefore.writeNS
	s.io.syncNS += o.ioAfter.syncNS - o.ioBefore.syncNS
	for i, v := range o.rp.sum {
		s.rp[i] += float64(v)
	}
}

func hist(s *obs.Snapshot, name string) obs.HistogramValue {
	h, _ := s.Histogram(name)
	return h
}

// ratio is a/b, or 0 where the workload never reaches the layer (b = 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics of a traced run. A layer the
// workload never reaches reads 0.
func perLayer(outs []*roundOut, m map[string]metric) {
	s := &layerSums{counters: map[string]float64{}, hsum: map[string]float64{}, hcnt: map[string]float64{}}
	for _, o := range outs {
		s.addRound(o)
	}
	mean := func(n string) float64 { return ratio(s.hsum[n], s.hcnt[n]) }
	commits := s.counters["txn.commits"]
	r := &s.rp
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("wire.overhead_us", "us", ratio(s.execRTT-s.hsum["executor.execute.ns"], s.ops)/1e3)
	set("wire.bytes_per_op", "B", ratio(s.counters["wire.bytes.in"]+s.counters["wire.bytes.out"], s.ops))
	set("executor.execute_us", "us", mean("executor.execute.ns")/1e3)
	set("opal.execute_us", "us", ratio(r[rpOpalNS], r[rpOpalN])/1e3)
	set("opal.ns_per_send", "ns", ratio(r[rpOpalSendNS], r[rpSends]))
	set("calculus.parse_us", "us", ratio(r[rpParseNS], r[rpQueries])/1e3)
	set("algebra.optimize_us", "us", ratio(r[rpOptimizeNS], r[rpQueries])/1e3)
	set("algebra.exec_us", "us", ratio(r[rpExecNS], r[rpQueries])/1e3)
	set("algebra.members_per_row", "count", ratio(r[rpMembers], r[rpRows]))
	set("algebra.index_probes_per_op", "count", ratio(r[rpProbes], r[rpQueries]))
	set("directory.index_lookups_per_op", "count", ratio(s.counters["directory.index.lookups"], s.ops))
	set("path.eval_at_us", "us", ratio(r[rpPathNS], r[rpPaths])/1e3)
	set("core.store_us", "us", ratio(r[rpStoreNS], r[rpStores])/1e3)
	set("core.commit_us", "us", ratio(r[rpCommitNS], r[rpCommits])/1e3)
	set("txn.validate_us", "us", mean("txn.validate.ns")/1e3)
	set("txn.group_size", "commits", mean("txn.group.size"))
	set("txn.gather_spins_per_group", "count", mean("txn.gather.spins"))
	set("txn.fastpath_share", "fraction", ratio(s.counters["txn.fastpath.commits"], commits))
	set("store.apply_us", "us", mean("store.apply.ns")/1e3)
	set("store.bytes_written_per_commit", "B", ratio(float64(s.io.bytes), commits))
	set("store.track_writes_per_commit", "count", ratio(float64(s.io.writes), commits))
	set("store.syncs_per_commit", "count", ratio(float64(s.io.syncs), commits))
	set("store.write_us", "us", ratio(float64(s.io.writeNS), float64(s.io.writes))/1e3)
	set("store.sync_us", "us", ratio(float64(s.io.syncNS), float64(s.io.syncs))/1e3)
	untraced, traced := ratio(s.untraced, s.untracSec), ratio(s.tracedOps, s.tracedSec)
	set("trace.overhead_share", "fraction", 1-ratio(traced, untraced))
}
