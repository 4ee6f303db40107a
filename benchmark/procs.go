package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyPoll paces readiness probes. Readiness is always an observed state
// (a 200 from /readyz, an alive count), never an assumed delay.
const readyPoll = 5 * time.Millisecond

// serverPackage is the server under test, by import path so the build works
// from any directory of the module.
const serverPackage = "github.com/metascreen/metascreen/cmd/vsserved"

// buildServer compiles cmd/vsserved once per command into the work dir and
// reports the build time as harness.build_s. It always invokes the
// toolchain, which rebuilds only what is stale, so a binary left over from
// an older commit in the same directory can never be measured by mistake.
func (h *harness) buildServer() (string, error) {
	h.buildOnce.Do(func() {
		abs, err := filepath.Abs(h.workDir)
		if err != nil {
			h.buildErr = err
			return
		}
		bin := filepath.Join(abs, "vsserved")
		t0 := time.Now()
		cmd := exec.Command("go", "build", "-o", bin, serverPackage)
		if out, err := cmd.CombinedOutput(); err != nil {
			h.buildErr = fmt.Errorf("go build %s: %v\n%s", serverPackage, err, out)
			return
		}
		h.buildS = time.Since(t0).Seconds()
		h.serverBin = bin
	})
	return h.serverBin, h.buildErr
}

// freeAddr asks the kernel for an unused localhost port and releases it for
// the child to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// child is one vsserved process. Its exit is observed by a waiter goroutine
// so a child that dies mid-run is noticed and fails the run.
type child struct {
	name   string
	cmd    *exec.Cmd
	url    string
	stderr *os.File
	exited chan struct{}

	stopOnce sync.Once
	mu       sync.Mutex
	stopping bool
	peakRSS  float64 // MB, sampled before the process is stopped
}

// startChild launches vsserved on a fresh port with its stderr kept in the
// output directory, and registers it for cleanup.
func (h *harness) startChild(name string, args ...string) (*child, error) {
	bin, err := h.buildServer()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(filepath.Join(h.outDir, name+".stderr.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, url: "http://" + addr, stderr: logFile, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	h.mu.Lock()
	h.children = append(h.children, c)
	h.mu.Unlock()
	return c, nil
}

// died reports whether the process exited without being asked to.
func (c *child) died() bool {
	select {
	case <-c.exited:
		c.mu.Lock()
		defer c.mu.Unlock()
		return !c.stopping
	default:
		return false
	}
}

// stop drains the child with SIGTERM and kills it if it lingers; it returns
// once the process has been reaped.
func (c *child) stop() { c.end(syscall.SIGTERM) }

// kill is the no-grace exit path (signals, failures).
func (c *child) kill() { c.end(syscall.SIGKILL) }

// end delivers sig once, waits for the process and closes its log; later
// calls are no-ops, so every exit path may call it.
func (c *child) end(sig syscall.Signal) {
	c.stopOnce.Do(func() {
		c.samplePeakRSS()
		c.mu.Lock()
		c.stopping = true
		c.mu.Unlock()
		c.cmd.Process.Signal(sig)
		select {
		case <-c.exited:
		case <-time.After(10 * time.Second):
			c.cmd.Process.Kill()
			<-c.exited
		}
		c.stderr.Close()
	})
}

// samplePeakRSS reads the kernel's high-water mark for the process.
func (c *child) samplePeakRSS() {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				c.mu.Lock()
				c.peakRSS = kb / 1024
				c.mu.Unlock()
			}
		}
	}
}

func (c *child) peakRSSMB() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peakRSS
}

// stopChildren stops the given children and forgets them.
func (h *harness) stopChildren(cs ...*child) {
	for _, c := range cs {
		if c != nil {
			c.stop()
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	kept := h.children[:0]
	for _, have := range h.children {
		gone := false
		for _, c := range cs {
			gone = gone || have == c
		}
		if !gone {
			kept = append(kept, have)
		}
	}
	h.children = kept
}

// waitReady polls url until it answers 200, the watched children die, or
// the deadline passes.
func waitReady(ctx context.Context, hc *http.Client, url string, watch ...*child) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		for _, c := range watch {
			if c.died() {
				return fmt.Errorf("%s exited before %s answered (see its stderr log)", c.name, url)
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %v", url, err)
		case <-time.After(readyPoll):
		}
	}
}

// waitWorkers polls the coordinator's membership until n workers are alive.
func waitWorkers(ctx context.Context, hc *http.Client, coordURL string, n int, watch ...*child) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		alive := 0
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, coordURL+"/v1/workers", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			var ws []struct {
				Alive bool `json:"alive"`
			}
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ws) == nil {
				for _, w := range ws {
					if w.Alive {
						alive++
					}
				}
			}
			resp.Body.Close()
		}
		if alive >= n {
			return nil
		}
		for _, c := range watch {
			if c.died() {
				return fmt.Errorf("%s exited while workers were registering (see its stderr log)", c.name)
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("only %d of %d workers registered at %s", alive, n, coordURL)
		case <-time.After(readyPoll):
		}
	}
}
