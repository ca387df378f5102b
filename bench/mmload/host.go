package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/server"
)

// rpcTimeout bounds every round trip, so a hung server fails the run
// instead of stalling it.
const rpcTimeout = 60 * time.Second

// wireServer is the server a wire workload talks to: a real mmfsd
// child process for measured runs, or internal/server hosted in this
// process (with a twin file system beside it) for the traced pass.
type wireServer struct {
	addr string

	// child daemon
	cmd        *exec.Cmd
	readerDone chan struct{}
	mu         sync.Mutex
	log        []string // guarded by mu

	// in-process server
	srv      *server.Server
	serving  sync.WaitGroup // the Serve goroutine
	serveErr error          // written before serving is done

	stopped bool
}

// buildDaemon compiles cmd/mmfsd into the build directory. It runs
// before any timing starts.
func buildDaemon(env *environment) (string, error) {
	bin := filepath.Join(env.buildDir, "mmfsd")
	cmd := exec.Command("go", "build", "-o", bin, "mmfs/cmd/mmfsd")
	cmd.Dir = env.moduleDir()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mmfsd: %v\n%s", err, out)
	}
	return bin, nil
}

// startDaemon launches mmfsd on an ephemeral loopback port and waits
// for its "serving on" line.
func startDaemon(bin string, args []string) (*wireServer, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ws := &wireServer{cmd: cmd, readerDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(ws.readerDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			ws.mu.Lock()
			ws.log = append(ws.log, line)
			ws.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "mmfsd: serving on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	select {
	case ws.addr = <-addrCh:
		return ws, nil
	case <-ws.readerDone:
		err = errors.New("mmfsd exited before serving")
	case <-time.After(30 * time.Second):
		err = errors.New("mmfsd did not start serving within 30s")
	}
	ws.kill()
	return nil, err
}

// startInproc formats a file system and serves it from this process
// over loopback TCP.
func startInproc(opts core.Options) (*wireServer, error) {
	fs, err := core.Format(opts)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &wireServer{addr: lis.Addr().String(), srv: server.New(fs)}
	ws.serving.Add(1)
	go func() {
		defer ws.serving.Done()
		ws.serveErr = ws.srv.Serve(lis)
	}()
	return ws, nil
}

func (ws *wireServer) dial() (*client.Client, error) {
	return client.DialOptions(ws.addr, client.Options{DialTimeout: 5 * time.Second, RPCTimeout: rpcTimeout})
}

// kill tears a child down without ceremony (error paths only).
func (ws *wireServer) kill() {
	if ws.cmd != nil && !ws.stopped {
		ws.stopped = true
		_ = ws.cmd.Process.Kill()
		<-ws.readerDone
		_ = ws.cmd.Wait()
	}
}

// stop shuts the server down the way an operator would and checks it
// went cleanly: the daemon must drain on SIGTERM, print "shutdown
// complete" and exit 0.
func (ws *wireServer) stop() error {
	if ws.stopped {
		return nil
	}
	ws.stopped = true
	if ws.cmd == nil {
		err := ws.srv.Close()
		if ws.serving.Wait(); err == nil {
			err = ws.serveErr
		}
		return err
	}
	if err := ws.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-ws.readerDone:
	case <-time.After(30 * time.Second):
		_ = ws.cmd.Process.Kill()
		<-ws.readerDone
		_ = ws.cmd.Wait()
		return errors.New("mmfsd did not exit within 30s of SIGTERM")
	}
	if err := ws.cmd.Wait(); err != nil {
		return fmt.Errorf("mmfsd exit: %w", err)
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for _, l := range ws.log {
		if l == "mmfsd: shutdown complete" {
			return nil
		}
	}
	return errors.New("mmfsd exited without printing \"shutdown complete\"")
}

// peakRSSMB reads the high-water resident set of the daemon (or of
// this process when pid is 0) from /proc; 0 when unavailable.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func (ws *wireServer) pid() int {
	if ws.cmd != nil {
		return ws.cmd.Process.Pid
	}
	return 0
}
