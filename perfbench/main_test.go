package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// Each workload runs end to end at the shortest length, every answer
// agrees with the model, and the last line is the result object.
func TestWorkloadsRunCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server")
	}
	// Traced runs write their spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, c := range []struct {
		workload string
		trace    string
		metric   string
	}{
		{"send", "0", "ops_per_s"},
		{"query", "0", "p50_ms"},
		{"commit", "0", "disk_mb"},
		{"commit", "1", "store.syncs_per_commit"},
		{"query", "1", "algebra.exec_us"},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", c.workload, "--seed", "5", "--seconds", "1", "--trace", c.trace}, &out, &errb)
		if code != 0 {
			t.Fatalf("%s trace %s: exit %d: %s", c.workload, c.trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line %q: %v", c.workload, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace %s: correct %v, %d of %d failed: %s", c.workload, c.trace, res.Correct, res.Failed, res.Attempted, errb.String())
		}
		if v, ok := res.Metrics[c.metric]; !ok || v.Value <= 0 {
			t.Errorf("%s trace %s: %s = %+v", c.workload, c.trace, c.metric, v)
		}
	}
	if _, err := os.Stat(spansDir + "/spans-query-seed5.jsonl"); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
