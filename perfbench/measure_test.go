package main

import (
	"errors"
	"testing"
)

func TestP99RefusesFewSamples(t *testing.T) {
	lat := make([]int64, p99MinSamples-1)
	for i := range lat {
		lat[i] = int64(i + 1)
	}
	if _, err := p99(lat); !errors.Is(err, errFewSamples) {
		t.Fatalf("p99 of %d samples: err %v, want a refusal", len(lat), err)
	}
	lat = append(lat, int64(len(lat)+1))
	v, err := p99(lat)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %d, %v; want 990", v, err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []int64{10, 20, 30, 40}
	if p := percentile(s, 0.5); p != 20 {
		t.Errorf("p50 = %d, want 20", p)
	}
	if p := percentile(s, 1); p != 40 {
		t.Errorf("p100 = %d, want 40", p)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "wire.execute", ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: "wire.commit", ID: 2, Parent: 0, Start: 50, End: 90}, // overlaps its sibling by 10
		{Name: "inner", ID: 3, Parent: 1, Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 20, "wire.execute": 40, "wire.commit": 40, "inner": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}
