package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one symtago process the benchmark started. Output is kept
// in memory for error messages.
type proc struct {
	cmd  *exec.Cmd
	out  bytes.Buffer
	done chan struct{}
	err  error
}

// start launches bin with args. The caller must stop it.
func start(bin string, args ...string) (*proc, error) {
	p := &proc{cmd: command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s %s: %w", bin, strings.Join(args, " "), err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the exit (SIGKILL after 15s) and
// returns the final process state.
func (p *proc) stop() (*os.ProcessState, error) {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exit racing the signal is seen below
		select {
		case <-p.done:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
			return p.cmd.ProcessState, fmt.Errorf("%s: did not stop on SIGTERM", p.cmd.Path)
		}
	}
	if p.err != nil && !terminated(p.cmd.ProcessState) {
		return p.cmd.ProcessState, fmt.Errorf("%s: %v: %s", p.cmd.Path, p.err, tailText(p.out.String()))
	}
	return p.cmd.ProcessState, nil
}

// terminated reports an exit caused by the benchmark's own SIGTERM.
func terminated(ps *os.ProcessState) bool {
	ws, ok := ps.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// command prepares bin to run as a child that the kernel kills if the
// benchmark dies first, so no server or worker outlives a killed run.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// pass is the outcome of one run-to-completion invocation.
type pass struct {
	Wall   time.Duration
	CPU    time.Duration
	RSSMB  float64
	Stdout string
	Stderr string
}

// runPass runs bin to completion and measures its wall time, CPU time
// and peak resident memory.
func runPass(bin string, args ...string) (pass, error) {
	cmd := command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	p := pass{Wall: time.Since(t0), Stdout: stdout.String(), Stderr: stderr.String()}
	if ps := cmd.ProcessState; ps != nil {
		p.CPU, p.RSSMB = usage(ps)
	}
	if err != nil {
		return p, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, tailText(p.Stdout+p.Stderr))
	}
	return p, nil
}

// usage returns a finished process's CPU time and peak RSS in MB.
func usage(ps *os.ProcessState) (time.Duration, float64) {
	cpu := ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, 0
}

func tailText(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitHealthy polls url until it answers 200, the process exits, or
// the deadline passes.
func waitHealthy(p *proc, url string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before answering %s: %s", p.cmd.Path, url, tailText(p.out.String()))
		case <-ctx.Done():
			return fmt.Errorf("%s: no answer from %s", p.cmd.Path, url)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100
// on Linux).
const clockTick = 10 * time.Millisecond

// procCPU reads a live process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS reads a live process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
