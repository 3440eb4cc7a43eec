package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// server is one running fairserved process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	stderr  bytes.Buffer
	drained chan struct{}

	stopOnce sync.Once
	stopErr  error
}

// startServer execs fairserved on a free loopback port and returns
// once a POST of probe to /v1/assign has answered 200. The returned
// duration is exec → first 200: artifact decode and validation, index
// and tracker build, listen, and one request.
func startServer(e *env, args []string, probe []byte) (*server, time.Duration, error) {
	s := &server{drained: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(e.bin, "fairserved"), append(args, "-addr", "127.0.0.1:0")...)
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = childAttr()
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			rest := line[i+len("listening on "):]
			s.base = strings.Fields(rest)[0]
			break
		}
	}
	go func() {
		defer close(s.drained)
		io.Copy(io.Discard, out) // keeps the server from blocking on a full stdout pipe
	}()
	if s.base == "" {
		s.stop()
		return nil, 0, fmt.Errorf("fairserved did not start: %s", s.stderr.String())
	}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := client.Post(s.base+"/v1/assign", "application/json", bytes.NewReader(probe))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
			err = fmt.Errorf("probe answered %d", resp.StatusCode)
		}
		if time.Since(t0) > 20*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("fairserved never answered 200: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB is the server's high-water resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// vmHWM is a running process's high-water resident set in MB, from
// /proc/<pid>/status. It counts only the program's own memory: the
// rusage maxrss of a child also counts the parent's resident set at the
// time of the fork, since the child shares the parent's memory until it
// execs.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// cpuSeconds is the user+system CPU time the server has used, from
// /proc/<pid>/stat (in USER_HZ = 100 ticks per second). Unlike wall
// time it does not count time the host stole from this machine.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", s.cmd.Process.Pid)
	}
	return (utime + stime) / 100, nil
}

// stop shuts the server down gracefully and waits for it to exit; a
// server that outlives its grace period is killed. Later calls return
// the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() { s.stopErr = s.terminate() })
	return s.stopErr
}

func (s *server) terminate() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-s.drained
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("fairserved exit: %v: %s", err, s.stderr.String())
		}
		return nil
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("fairserved ignored SIGTERM")
	}
}

// cliRun is one finished training CLI process.
type cliRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	output string
}

// runCLI runs a training binary to completion and measures it: wall
// time from exec to exit, user+system CPU, and peak RSS, the last
// VmHWM read while it ran (read every rssPoll; the high-water mark only
// grows, so at most the last rssPoll of growth goes unseen).
func runCLI(e *env, name string, args ...string) (*cliRun, error) {
	var out bytes.Buffer
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.SysProcAttr = childAttr()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop, peak := make(chan struct{}), make(chan float64)
	go func() {
		hwm := 0.0
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			if v, err := vmHWM(cmd.Process.Pid); err == nil {
				hwm = max(hwm, v)
			}
			select {
			case <-stop:
				peak <- hwm
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(t0)
	close(stop)
	rss := <-peak
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out.String())
	}
	st := cmd.ProcessState
	return &cliRun{wall: wall, cpu: st.UserTime() + st.SystemTime(), rssMB: rss, output: out.String()}, nil
}

// rssPoll is how often runCLI reads a running CLI's VmHWM.
const rssPoll = 5 * time.Millisecond

// childAttr makes a child die with the benchmark, so an interrupted run
// leaves no process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
