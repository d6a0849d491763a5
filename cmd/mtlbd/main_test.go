package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"shadowtlb/internal/serve"
	"shadowtlb/internal/serve/client"
)

// startDaemon runs the daemon main loop with an injected signal channel
// and returns its base URL, the signal channel, and the exit-code
// channel.
func startDaemon(t *testing.T, args ...string) (string, chan os.Signal, chan int) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	code := make(chan int, 1)
	var out, errb strings.Builder
	go func() {
		code <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), sig, ready, &out, &errb)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, sig, code
	case c := <-code:
		t.Fatalf("daemon exited %d before ready; stderr: %s", c, errb.String())
		return "", nil, nil
	}
}

func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	base, sig, code := startDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c := client.New(base, nil)
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	exps, err := c.Experiments(ctx)
	if err != nil || len(exps) == 0 {
		t.Fatalf("experiments: %v (%d)", err, len(exps))
	}

	st, err := c.Run(ctx, serve.JobSpec{
		Cells: []serve.CellSpec{{Workload: "stride", TLB: 64}},
		Scale: "small",
	}, nil)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if st.State != serve.StateDone || len(st.Result.Cells) != 1 {
		t.Fatalf("job status %+v", st)
	}

	// SIGTERM mid-run: the daemon drains and exits cleanly...
	sig <- syscall.SIGTERM
	select {
	case exit := <-code:
		if exit != 0 {
			t.Fatalf("daemon exited %d after SIGTERM", exit)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// ...and the listener is closed.
	addr := strings.TrimPrefix(base, "http://")
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after drain")
	}
}

func TestDaemonDrainsInFlightJobBeforeExit(t *testing.T) {
	base, sig, code := startDaemon(t, "-jobs", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c := client.New(base, nil)

	// Submit a real (small but not instant) job, then SIGTERM while it
	// may still be running: it must complete, not be dropped.
	id, err := c.Submit(ctx, serve.JobSpec{Experiments: []string{"tlbtime"}, Scale: "small"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	sig <- syscall.SIGTERM

	st, err := c.Wait(ctx, id, nil)
	if err == nil {
		if st.State != serve.StateDone {
			t.Fatalf("in-flight job after SIGTERM: %s (%s)", st.State, st.Error)
		}
	}
	// err != nil means the listener closed before we could re-read the
	// status; the exit code still proves the drain completed.

	select {
	case exit := <-code:
		if exit != 0 {
			t.Fatalf("daemon exited %d", exit)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// TestDaemonBadFlags: a malformed command line exits 2 and a
// deployment the daemon cannot stand up (an unusable store, an
// unparsable listen address) exits 1, each before serving anything and
// with stderr naming the problem.
func TestDaemonBadFlags(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"unknown scheme", []string{"-scheme", "nope"}, 2, "nope"},
		{"malformed duration", []string{"-timeout", "soon"}, 2, "soon"},
		{"store is a file", []string{"-store", notDir}, 1, notDir},
		{"bad listen address", []string{"-listen", "127.0.0.1:notaport"}, 1, "notaport"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sig := make(chan os.Signal, 1)
			var out, errb strings.Builder
			if code := run(tc.args, sig, nil, &out, &errb); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr does not name %q:\n%s", tc.want, errb.String())
			}
			if out.Len() != 0 {
				t.Errorf("the daemon announced itself:\n%s", out.String())
			}
		})
	}
}
