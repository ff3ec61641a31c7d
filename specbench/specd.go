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
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// specdWorkers is the service's job concurrency: one slot per core of
// the 2-core host the benchmark targets.
const specdWorkers = 2

// specd is one running specd process.
type specd struct {
	cmd    *exec.Cmd
	base   string // API base URL
	pprof  string // pprof base URL
	log    *tailBuffer
	exited chan struct{} // closed once the process has been waited for
	client *http.Client
}

// startSpecd execs the binary on free loopback ports and waits until
// /healthz answers. A port taken between choosing and binding makes
// specd exit at once; that is retried on new ports.
func startSpecd(ctx context.Context, bin string) (*specd, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := launch(ctx, bin)
		if err == nil || ctx.Err() != nil {
			return s, err
		}
		lastErr = err
	}
	return nil, lastErr
}

func launch(ctx context.Context, bin string) (*specd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	paddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &specd{
		base:   "http://" + addr,
		pprof:  "http://" + paddr,
		log:    &tailBuffer{max: 64 << 10},
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * clients,
			DisableCompression:  true,
		}},
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(specdWorkers), "-pprof", paddr)
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	// the kernel kills specd if this process dies without stopping it
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting specd: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("specd exited during start-up: %s", s.log.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		default:
		}
		if s.healthy() {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("specd not ready after 10s: %s", s.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *specd) healthy() bool {
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop drains specd with SIGTERM, kills it if the drain takes longer
// than 15 s, and returns once the process has been reaped.
func (s *specd) stop() {
	s.client.CloseIdleConnections()
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// post sends one request body and returns the status and response body.
func (s *specd) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *specd) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

// sample is specd's resource and counter state at one instant.
type sample struct {
	metrics    map[string]float64 // Prometheus series -> value
	totalAlloc float64            // runtime.MemStats.TotalAlloc, bytes
}

func (s *specd) sample(ctx context.Context) (sample, error) {
	var out sample
	data, err := s.get(ctx, s.base+"/metrics")
	if err != nil {
		return out, err
	}
	out.metrics = parseMetrics(data)
	// the heap profile's text form ends with runtime.MemStats; pprof
	// starts on its own listener, so allow it a moment after /healthz
	for attempt := 0; ; attempt++ {
		data, err = s.get(ctx, s.pprof+"/debug/pprof/heap?debug=1")
		if err == nil || attempt == 50 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return out, err
	}
	out.totalAlloc, err = memStat(data, "TotalAlloc")
	return out, err
}

// parseMetrics reads Prometheus text exposition into series -> value.
func parseMetrics(data []byte) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

func memStat(heapProfile []byte, name string) (float64, error) {
	prefix := "# " + name + " = "
	for _, line := range strings.Split(string(heapProfile), "\n") {
		if strings.HasPrefix(line, prefix) {
			return strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64)
		}
	}
	return 0, fmt.Errorf("heap profile has no %s line", name)
}

// cpuTicks reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTicks(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + st, nil
}

// clockTicksPerSecond is USER_HZ, fixed at 100 by the Linux ABI.
const clockTicksPerSecond = 100

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// tailBuffer keeps the last max bytes written to it: specd logs every
// request, and only the end matters when something goes wrong.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*t.max { // trim in bulk, not on every line
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf[max(0, len(t.buf)-t.max):])
}
