package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root:
// the first directory holding cmd/qserved.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "qserved", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/qserved not found in the working directory or above it; run from the repository root")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/qserved into outDir and returns the binary.
func buildDaemon(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "qserved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/qserved")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building qserved: %v\n%s", err, out.Bytes())
	}
	return bin, nil
}

// daemon is one qserved process under test.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *tailBuffer
	exited chan struct{}
}

// startDaemon launches bin on a free 127.0.0.1 port with the given extra
// flags. The caller must stop it.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-quiet"}, flags...)
	d := &daemon{cmd: exec.Command(bin, args...), addr: addr, log: &tailBuffer{max: 16 << 10}, exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// Should the driver be killed outright, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting qserved: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // exit status is reported through running/stop
		close(d.exited)
	}()
	return d, nil
}

// running reports whether the process has not exited.
func (d *daemon) running() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after 10 s. It returns once the process is gone.
func (d *daemon) stop() {
	if !d.running() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is handled below
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuSeconds reads the daemon's CPU seconds (user + system) from
// /proc/<pid>/stat, whose times are in clock ticks of 1/100 s on Linux.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields count from after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return (ut + st) / 100, nil
}

// peakRSSMB is the daemon's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// tailBuffer keeps the last max bytes written to it: the daemon's log,
// quoted when the daemon fails.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if over := len(t.b) - t.max; over > 0 {
		t.b = append(t.b[:0], t.b[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// client is one HTTP/1.1 connection to the daemon: the transport never
// holds a second one open.
type client struct {
	base string
	hc   *http.Client
}

// newClient returns a client of the daemon at addr that adds every
// connection it opens to dials.
func newClient(addr string, dials *atomic.Int64) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				dials.Add(1)
			}
			return c, err
		},
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// do sends one request and returns the status and the whole body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }
