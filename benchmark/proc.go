package main

import (
	"bytes"
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

// workRoot is where everything the benchmark builds or writes at run
// time lives, relative to the directory it is started in (the root of
// the checkout). It is in .gitignore.
const workRoot = ".bench_build"

// rig owns a run's scratch directory and every subprocess started in
// it, so that any exit path — normal return, a failed self-check, a
// signal — stops the processes and removes the files.
type rig struct {
	bin string // directory holding bvindex, bvserve, bvrouter
	dir string // this run's temp dir

	mu    sync.Mutex
	procs []*proc
}

// newRig builds the three binaries under test (a no-op when they are
// current) and makes a fresh temp dir.
func newRig() (*rig, error) {
	bin, err := filepath.Abs(filepath.Join(workRoot, "bin"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/bvindex", "./cmd/bvserve", "./cmd/bvrouter")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the programs under test: %v\n%s", err, out)
	}
	dir, err := os.MkdirTemp(filepath.Dir(bin), "run-")
	if err != nil {
		return nil, err
	}
	return &rig{bin: bin, dir: dir}, nil
}

// close stops every subprocess still running and removes the temp dir.
func (r *rig) close() {
	r.mu.Lock()
	procs := r.procs
	r.procs = nil
	r.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(r.dir)
}

// subdir makes a fresh directory under the run's temp dir.
func (r *rig) subdir(name string) (string, error) {
	return os.MkdirTemp(r.dir, name+"-")
}

// run executes one of the binaries to completion (bvindex).
func (r *rig) run(name string, args ...string) error {
	cmd := exec.Command(filepath.Join(r.bin, name), args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return nil
}

// proc is one server subprocess on its own loopback port. Its output
// goes to the null device.
type proc struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches a server binary with -addr on a free port and waits
// until it answers /readyz.
func (r *rig) start(name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(r.bin, name), append([]string{"-addr", addr}, args...)...)
	// If the benchmark itself is killed, the kernel takes the server
	// down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, base: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	r.mu.Lock()
	r.procs = append(r.procs, p)
	r.mu.Unlock()
	if err := p.waitReady(20 * time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

func (p *proc) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready", p.name)
		default:
		}
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %s", p.name, limit)
}

// stop asks for a graceful drain and falls back to SIGKILL.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

// kill is SIGKILL and reap; safe on a process that already exited.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// rssPeakMB reads the process's peak resident set (VmHWM). Read it
// before the process is stopped.
func (p *proc) rssPeakMB() float64 { return rssPeakMB(p.cmd.Process.Pid) }

func rssPeakMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	at := bytes.Index(b, []byte("VmHWM:"))
	if at < 0 {
		return 0
	}
	f := strings.Fields(string(b[at+len("VmHWM:"):]))
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}

// cpu reads the process's user+system CPU time from /proc/<pid>/stat.
func (p *proc) cpu() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line, in clock ticks of 10 ms.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
