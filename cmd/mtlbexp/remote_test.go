package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"shadowtlb/internal/exp"
	"shadowtlb/internal/serve"
)

// startDaemon hosts an in-process mtlbd over httptest.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// runBoth executes the same mtlbexp invocation locally and against the
// daemon and returns both stdouts.
func runBoth(t *testing.T, ts *httptest.Server, args ...string) (local, remote string) {
	t.Helper()
	var lout, lerr strings.Builder
	if code := run(args, &lout, &lerr); code != 0 {
		t.Fatalf("local run %v: exit %d, stderr: %s", args, code, lerr.String())
	}
	var rout, rerr strings.Builder
	rargs := append([]string{"-server", ts.URL}, args...)
	if code := run(rargs, &rout, &rerr); code != 0 {
		t.Fatalf("remote run %v: exit %d, stderr: %s", rargs, code, rerr.String())
	}
	return lout.String(), rout.String()
}

// TestRemoteMatchesLocalEveryExperiment is the service-mode acceptance
// check: mtlbexp -server must print byte-identical output to a local
// run, for every registered experiment at small scale, in both text and
// CSV encodings. Under -short only a spot check runs.
func TestRemoteMatchesLocalEveryExperiment(t *testing.T) {
	ts := startDaemon(t)
	ids := []string{"fig3"}
	if !testing.Short() {
		ids = ids[:0]
		for _, d := range exp.Descriptors() {
			ids = append(ids, d.ID)
		}
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			local, remote := runBoth(t, ts, "-exp", id, "-scale", "small")
			if local != remote {
				t.Errorf("text output differs for %s:\n-- local --\n%s\n-- remote --\n%s", id, local, remote)
			}
			localCSV, remoteCSV := runBoth(t, ts, "-exp", id, "-scale", "small", "-csv")
			if localCSV != remoteCSV {
				t.Errorf("CSV output differs for %s:\n-- local --\n%s\n-- remote --\n%s", id, localCSV, remoteCSV)
			}
		})
	}
}

// TestRemoteMatchesLocalAll checks the -exp all form, whose headers
// between experiments must also match.
func TestRemoteMatchesLocalAll(t *testing.T) {
	if testing.Short() {
		t.Skip("covered per-experiment in short mode")
	}
	ts := startDaemon(t)
	local, remote := runBoth(t, ts, "-exp", "all", "-scale", "small")
	if local != remote {
		t.Errorf("-exp all output differs (local %d bytes, remote %d bytes)", len(local), len(remote))
	}
	for _, d := range exp.Descriptors() {
		if !strings.Contains(remote, "==== "+d.ID+" ====") {
			t.Errorf("remote -exp all output missing header for %s", d.ID)
		}
	}
}

// TestRemoteRejectsObsFlags checks that observability flags, whose
// artifacts live in the daemon process, are refused with -server, and
// so is -scheme, which the daemon would ignore: it renders experiments
// with its own scheme.
func TestRemoteRejectsObsFlags(t *testing.T) {
	ts := startDaemon(t)
	for _, flag := range []string{"-metrics", "-timeline", "-scheme"} {
		t.Run(flag, func(t *testing.T) {
			value := t.TempDir()
			if flag == "-scheme" {
				value = "coalesced"
			}
			var out, errb strings.Builder
			code := run([]string{"-server", ts.URL, "-exp", "fig3", "-scale", "small", flag, value}, &out, &errb)
			if code != 2 {
				t.Fatalf("-server with %s exited %d, want 2", flag, code)
			}
			if !strings.Contains(errb.String(), "-server") || !strings.Contains(errb.String(), flag) {
				t.Errorf("unhelpful error: %q", errb.String())
			}
			if out.Len() != 0 {
				t.Errorf("refused run wrote to stdout:\n%s", out.String())
			}
		})
	}
}

// TestRemoteRejectsStore checks that -store is refused with -server:
// the daemon owns the store.
func TestRemoteRejectsStore(t *testing.T) {
	ts := startDaemon(t)
	var out, errb strings.Builder
	code := run([]string{"-server", ts.URL, "-exp", "fig3", "-scale", "small", "-store", t.TempDir()}, &out, &errb)
	if code != 2 {
		t.Fatalf("-server with -store exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-store") || !strings.Contains(errb.String(), "mtlbd -store") {
		t.Errorf("unhelpful error: %q", errb.String())
	}
}

// TestRemoteStats checks -stats reports daemon-side cache effectiveness
// on stderr without touching stdout.
func TestRemoteStats(t *testing.T) {
	ts := startDaemon(t)
	var out1, err1 strings.Builder
	if code := run([]string{"-server", ts.URL, "-exp", "tlbtime", "-scale", "small", "-stats"}, &out1, &err1); code != 0 {
		t.Fatalf("exit %d: %s", code, err1.String())
	}
	if !strings.Contains(err1.String(), "cells") {
		t.Errorf("-stats wrote nothing useful: %q", err1.String())
	}

	// A second identical run is served from the daemon cache.
	var out2, err2 strings.Builder
	if code := run([]string{"-server", ts.URL, "-exp", "tlbtime", "-scale", "small", "-stats"}, &out2, &err2); code != 0 {
		t.Fatalf("exit %d: %s", code, err2.String())
	}
	if out1.String() != out2.String() {
		t.Error("repeated remote runs differ")
	}
	if !strings.Contains(err2.String(), "served from the daemon cache") {
		t.Errorf("second run's -stats: %q", err2.String())
	}
}
