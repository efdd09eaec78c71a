package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// server is one drevald process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer execs drevald on a free loopback port and waits until it
// is ready: /healthz answers 200 and, with a WAL, replay has finished.
// The returned duration runs from exec to ready.
func startServer(bin, logPath string, extra ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	// The child holds its own descriptor; this one is never written.
	defer func() { _ = logf.Close() }()
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec drevald: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	if err := s.waitReady(30 * time.Second); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /healthz every 250 µs until it answers, then every
// 5 ms until WAL replay (if any) has finished.
func (s *server) waitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	pause := 250 * time.Microsecond
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("drevald exited before it was ready: %v", err)
		default:
		}
		h, err := getHealth(hc, s.base)
		if err == nil {
			if h.WAL == nil || (!h.WAL.Replaying && h.WAL.ReplayError == "") {
				return nil
			}
			if h.WAL.ReplayError != "" {
				return fmt.Errorf("drevald WAL replay failed: %s", h.WAL.ReplayError)
			}
			pause = 5 * time.Millisecond
		}
		time.Sleep(pause)
	}
	return errors.New("drevald not ready within " + limit.String())
}

// health is the part of drevald's /healthz body the benchmark reads.
type health struct {
	WAL *struct {
		Replaying   bool   `json:"replaying"`
		ReplayError string `json:"replayError"`
		Epoch       int    `json:"epoch"`
	} `json:"wal"`
}

func getHealth(hc *http.Client, base string) (health, error) {
	var h health
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return h, err
	}
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	return h, json.Unmarshal(buf.Bytes(), &h)
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited after ten seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // the Wait below reaps it either way
		s.done <- <-s.done
	}
}

// cpuTime is the process's user+system CPU time so far, all threads.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// cpuClock is the process's CPU time so far, all threads, to the
// nanosecond: clock_gettime on its process CPU clock, whose id Linux
// derives from the pid (MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)).
// It is precise enough to tell whether drevald ran at all in a window
// of microseconds, which the 10 ms ticks of /proc/<pid>/stat are not.
func (s *server) cpuClock() (time.Duration, error) {
	id := int64(^s.cmd.Process.Pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("drevald CPU clock: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSS is the process's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
