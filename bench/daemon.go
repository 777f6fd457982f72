package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// BuildMeshd compiles repo's cmd/meshd into dir and returns the binary's
// path. The go command inherits the environment, so GOCACHE and friends
// decide where the build cache lives.
func BuildMeshd(ctx context.Context, repo, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "meshd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/meshd")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build meshd: %v\n%s", err, out)
	}
	return bin, nil
}

// Daemon is one running meshd process.
type Daemon struct {
	Addr    string
	LogPath string // meshd's stderr: startup lines and, with -log json, the access log
	cmd     *exec.Cmd
	logFile *os.File
	exited  chan struct{}
	waitErr error
}

// StartDaemon execs meshd on an ephemeral loopback port with its files
// under dir and returns once it is listening.
func StartDaemon(bin, dir string, args ...string) (*Daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile) // a stale address would pass for this daemon's
	logPath := filepath.Join(dir, "meshd.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	argv := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain", "1s"}, args...)
	cmd := exec.Command(bin, argv...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start meshd: %w", err)
	}
	d := &Daemon{LogPath: logPath, cmd: cmd, logFile: logFile, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.Addr = strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.exited:
			logFile.Close()
			return nil, fmt.Errorf("meshd exited before listening (%v); log: %s", d.waitErr, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = d.Stop()
			return nil, errors.New("meshd did not report its address within 30s")
		}
	}
}

// PeakRSSMB returns the daemon's peak resident set (VmHWM) in MiB.
func (d *Daemon) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// Stop asks meshd to drain (SIGTERM), kills it if it has not exited
// within ten seconds, and returns once the process is gone.
func (d *Daemon) Stop() error {
	defer d.logFile.Close()
	select {
	case <-d.exited:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(10 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	return errors.New("meshd ignored SIGTERM for 10s and was killed")
}
