package main

import (
	"errors"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// p99MinSamples is the fewest samples a 99th percentile is reported
// from: below it fewer than ten samples lie beyond the percentile, and
// the figure would describe a handful of requests, not a tail.
const p99MinSamples = 1000

var errFewSamples = errors.New("fewer samples than a 99th percentile needs")

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.999999999) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// p99 is the 99th percentile of sorted, refused below p99MinSamples.
func p99(sorted []int64) (int64, error) {
	if len(sorted) < p99MinSamples {
		return 0, errFewSamples
	}
	return percentile(sorted, 0.99), nil
}

// median returns the median of xs (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the user plus system CPU this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the memory the program keeps alive: the Go heap right
// after a full collection. It holds the object cache, the sessions and
// the memory-backed files, and unlike the resident set it does not depend
// on when the collector last ran or how the heap is fragmented.
func liveHeap() uint64 {
	// The second collection empties what the first left in sync.Pool
	// victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
