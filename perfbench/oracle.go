package main

import (
	"fmt"
	"sort"
	"strings"
)

// checkReply compares a wire reply with the model's prediction. An
// unordered reply is an OPAL string of space-terminated tokens.
func checkReply(o *op, reply string) error {
	got := reply
	if o.unordered {
		if len(reply) < 2 || reply[0] != '\'' || reply[len(reply)-1] != '\'' {
			return fmt.Errorf("%s: reply %.80q is not a string", o.kind, reply)
		}
		got = sortedTokens(strings.Fields(reply[1 : len(reply)-1]))
	}
	if got != o.want {
		return fmt.Errorf("%s: got %.120q, model says %.120q", o.kind, got, o.want)
	}
	return nil
}

// checkGapFree checks the paper's gap-free commit clock: the commit
// times handed out after time after are distinct and, sorted, exactly
// after+1, after+2, ... with nothing skipped.
func checkGapFree(times []uint64, after uint64) error {
	s := append([]uint64(nil), times...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, t := range s {
		if want := after + 1 + uint64(i); t != want {
			if i > 0 && t == s[i-1] {
				return fmt.Errorf("commit time t%d handed out twice", t)
			}
			return fmt.Errorf("commit times skip from t%d to t%d", want-1, t)
		}
	}
	return nil
}

// histEntry is one committed (time, value) association of an element.
type histEntry struct {
	t uint64
	v int64
}

// checkHistory compares an element's committed history with the model's.
func checkHistory(what string, got, want []histEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: history has %d entries, model has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: history entry %d is (t%d, %d), model says (t%d, %d)",
				what, i, got[i].t, got[i].v, want[i].t, want[i].v)
		}
	}
	return nil
}
