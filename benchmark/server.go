package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/serve from the checkout at root into outDir and
// returns the binary path and the build time.
func buildServer(ctx context.Context, root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "serve")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/serve: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// server is one running cmd/serve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	base   string // http://addr
	execAt time.Time
	log    *os.File
	exited chan struct{}
}

// serverProcs is GOMAXPROCS for the server process: all the box has. The
// load generator gets the same; both are stamped into the result file.
func serverProcs() int { return runtime.NumCPU() }

// startServer execs the server binary on a free loopback port. The process
// is killed with the harness (Pdeathsig) so no failure path leaks it.
func startServer(bin, logPath string, flags ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, addr: addr, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	s.execAt = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		cmd.Wait() //nolint:errcheck // a killed server exits non-zero by design
		close(s.exited)
	}()
	return s, nil
}

// kill SIGKILLs the server and waits until the process has ended.
func (s *server) kill() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-s.exited
	s.log.Close()
}

// health is the part of /v1/healthz the harness reads.
type health struct {
	OK     bool   `json:"ok"`
	WALSeq uint64 `json:"walSeq"`
}

// waitHealthy polls /v1/healthz until ready(h) holds, returning when it
// first did. The poll is tight (the measured start-up is tens of
// milliseconds) and gives up when the process exits or ctx ends.
func (s *server) waitHealthy(ctx context.Context, c *http.Client, ready func(health) bool) (time.Time, error) {
	for {
		select {
		case <-s.exited:
			return time.Time{}, fmt.Errorf("server exited during start-up (see %s)", s.log.Name())
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		default:
		}
		var h health
		if err := getJSON(ctx, c, s.base+"/v1/healthz", &h); err == nil && h.OK && ready(h) {
			return time.Now(), nil
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post sends body and decodes the JSON reply into v (when non-nil),
// accepting any 2xx status.
func post(ctx context.Context, c *http.Client, url string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is one reading of the server's /metrics: series name (with its
// label set, as printed) to value. Histogram buckets are skipped.
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, c *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(string(text)), nil
}

func parseMetrics(text string) scrape {
	out := scrape{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta returns later[name] - s[name].
func (s scrape) delta(later scrape, name string) float64 { return later[name] - s[name] }

// procCPU returns utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat cpu fields", pid)
	}
	const clockTick = 100 // USER_HZ on every Linux the toolchain targets
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSS returns VmHWM (peak resident set) in bytes.
func procPeakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// boxCPU reads the guest-wide CPU counters from /proc/stat: all ticks and
// the ticks the hypervisor ran something else while a vCPU wanted to run.
func boxCPU() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseFloat(v, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// selfCPU returns this process's utime+stime.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
