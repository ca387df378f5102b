package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runMainEnv makes the test binary behave as mmfsd itself: the test
// re-executes its own binary with this set, so the daemon under test is
// the real main() — flag parsing, listeners, signal handling and all.
const runMainEnv = "MMFSD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestPprofAddr starts the daemon with -pprof-addr, reads the
// advertised address off the banner, fetches a profile index and a
// goroutine dump from it, and checks SIGTERM still drains cleanly with
// the extra listener joined.
func TestPprofAddr(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-cylinders", "200")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	lines := make(chan string, 64) // the daemon prints a handful of banner lines; never blocks it
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		exited <- cmd.Wait()
	}()
	defer cmd.Process.Kill() // no-op once the daemon has exited

	// waitLine returns the first line with the prefix, less the prefix.
	waitLine := func(prefix string) string {
		t.Helper()
		deadline := time.After(20 * time.Second)
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					t.Fatalf("daemon exited before printing %q", prefix)
				}
				if rest, found := strings.CutPrefix(l, prefix); found {
					return rest
				}
			case <-deadline:
				t.Fatalf("no %q line within 20s", prefix)
			}
		}
	}
	base := waitLine("mmfsd: pprof on ")
	for path, want := range map[string]string{
		"":                  "goroutine",
		"goroutine?debug=1": "goroutine profile:",
		"cmdline":           "-pprof-addr",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s%s: status %d, err %v, body lacks %q", base, path, resp.StatusCode, err, want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitLine("mmfsd: shutdown complete")
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after the drain")
	}
	// The exit is the proof the listener is gone. The port is not: it was
	// :0, and once released a parallel package's listener may hold it.
}
