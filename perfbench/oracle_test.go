package main

import (
	"strconv"
	"testing"
)

func TestSendOracleRejectsOffByOne(t *testing.T) {
	_, ops := draw(t, "send", 1, 1)
	o := &ops[0][0]
	if err := checkReply(o, o.want); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	if err := checkReply(o, o.want+"1"); err == nil {
		t.Error("wrong score accepted")
	}
}

func TestDepositOracleRejectsBalanceOffByOne(t *testing.T) {
	_, ops := draw(t, "commit", 1, 2)
	o := &ops[0][0]
	if err := checkReply(o, o.want); err != nil {
		t.Fatalf("right sum rejected: %v", err)
	}
	n, err := strconv.Atoi(o.want)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReply(o, strconv.Itoa(n+1)); err == nil {
		t.Error("sum of balances off by one accepted")
	}
	want := []histEntry{{5, 100}, {9, 130}}
	if err := checkHistory("account 1", []histEntry{{5, 100}, {9, 131}}, want); err == nil {
		t.Error("balance history off by one accepted")
	}
	if err := checkHistory("account 1", []histEntry{{5, 100}}, want); err == nil {
		t.Error("history missing a commit accepted")
	}
	if err := checkHistory("account 1", []histEntry{{5, 100}, {9, 130}}, want); err != nil {
		t.Errorf("right history rejected: %v", err)
	}
}

func TestAtOracleRejectsWrongValue(t *testing.T) {
	_, ops := draw(t, "query", 2, 200)
	for i := range ops[0] {
		o := &ops[0][i]
		if o.kind != "at" {
			continue
		}
		if err := checkReply(o, o.want); err != nil {
			t.Fatalf("right @T value rejected: %v", err)
		}
		if err := checkReply(o, o.want+"0"); err == nil {
			t.Errorf("wrong @T value accepted for %s", o.path)
		}
		return
	}
	t.Fatal("no @T op drawn")
}

func TestUnorderedOracle(t *testing.T) {
	o := &op{kind: "eq", unordered: true, want: "12 3 7"}
	if err := checkReply(o, "'7 12 3 '"); err != nil {
		t.Errorf("same rows in another order rejected: %v", err)
	}
	for _, bad := range []string{"'7 12 '", "'7 12 3 4 '", "7 12 3", "'7 12 3 3 '"} {
		if err := checkReply(o, bad); err == nil {
			t.Errorf("reply %q accepted", bad)
		}
	}
}

func TestGapFreeOracle(t *testing.T) {
	if err := checkGapFree([]uint64{13, 11, 12, 14}, 10); err != nil {
		t.Errorf("contiguous times rejected: %v", err)
	}
	if err := checkGapFree([]uint64{11, 13, 14}, 10); err == nil {
		t.Error("gap at t12 accepted")
	}
	if err := checkGapFree([]uint64{11, 12, 12}, 10); err == nil {
		t.Error("a time handed out twice accepted")
	}
	if err := checkGapFree([]uint64{12, 13}, 10); err == nil {
		t.Error("gap right after the load accepted")
	}
}
