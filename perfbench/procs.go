package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// backend is one dsserve child process.
type backend struct {
	cmd    *exec.Cmd
	url    string
	mu     sync.Mutex
	log    bytes.Buffer // the child's stderr, for diagnostics
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startBackend launches dsserve listening on addr (the child logs the
// address it bound, so port 0 works) and waits until its /healthz
// answers 200.
func startBackend(ctx context.Context, bin, addr string, args ...string) (*backend, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-topk"}, args...)...)
	// If the benchmark dies without cleaning up, the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dsserve: %w", err)
	}
	b := &backend{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			b.mu.Lock()
			b.log.WriteString(line + "\n")
			b.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a too-long line stops the scanner
		b.err = cmd.Wait()
		close(b.exited)
	}()
	select {
	case addr := <-addrc:
		b.url = "http://" + addr
	case <-b.exited:
		return nil, fmt.Errorf("dsserve exited before listening: %v\n%s", b.err, b.stderr())
	case <-time.After(30 * time.Second):
		_ = b.stop() // the start failure is the one to report
		return nil, fmt.Errorf("dsserve did not listen within 30s\n%s", b.stderr())
	case <-ctx.Done():
		_ = b.stop() // interrupted; the run is abandoned
		return nil, ctx.Err()
	}
	if err := waitHealthy(ctx, b.url+"/healthz"); err != nil {
		_ = b.stop() // the health failure is the one to report
		return nil, err
	}
	return b, nil
}

func (b *backend) stderr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.String()
}

func (b *backend) pid() int { return b.cmd.Process.Pid }

// stop asks the child to drain and exit, and waits for it. A child that
// ignores SIGTERM for 20s is killed, and stop reports an error.
func (b *backend) stop() error {
	select {
	case <-b.exited:
		return nil
	default:
	}
	_ = b.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	select {
	case <-b.exited:
		return nil
	case <-time.After(20 * time.Second):
	}
	_ = b.cmd.Process.Kill()
	<-b.exited
	return errors.New("dsserve did not exit on SIGTERM within 20s and was killed")
}

// waitHealthy polls url until it answers 200.
func waitHealthy(ctx context.Context, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // fully read; nothing to lose
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within 30s (last error %v)", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// backendPortBase is the first of the loopback ports backends prefer.
// The router's hash ring places nodes by address, so fixed addresses give
// every run the same split of keys across nodes; a port that is taken
// falls back to one the kernel picks.
const backendPortBase = 24310

// backendAddr returns backend i's preferred loopback address if the port
// is free now, else a kernel-chosen one.
func backendAddr(i int) string {
	addr := fmt.Sprintf("127.0.0.1:%d", backendPortBase+i)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "127.0.0.1:0"
	}
	_ = ln.Close() // only probing; the child binds it next
	return addr
}
