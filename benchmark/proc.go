package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// child is one finished child process: its output and what the kernel
// accounted to it.
type child struct {
	start time.Time
	// ready is from start to the child's first output, which every child
	// writes only once its work is done (or to its exit, if it wrote
	// none). It leaves out process exit, whose cost (unmapping the heap)
	// varies with the host far more than start-up does.
	ready   time.Duration
	cpu     time.Duration // user + system
	rssMB   float64       // peak resident set size
	stdout  []byte
	stderr  []byte
	exitErr error // non-nil when the child did not exit 0
}

// stampedBuffer is a bytes.Buffer that notes when its first write came.
type stampedBuffer struct {
	bytes.Buffer
	first time.Time
}

func (b *stampedBuffer) Write(p []byte) (int, error) {
	if b.first.IsZero() {
		b.first = time.Now()
	}
	return b.Buffer.Write(p)
}

// spawn runs name to completion under GOMAXPROCS=w with extra
// environment entries. It returns an error only when the process could
// not be started; a nonzero exit is reported in child.exitErr.
func spawn(w int, extraEnv []string, name string, args ...string) (child, error) {
	cmd := exec.Command(name, args...)
	cmd.Env = append(append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w)), extraEnv...)
	var stdout stampedBuffer
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	c := child{start: time.Now()}
	err := cmd.Run()
	c.ready = time.Since(c.start)
	if !stdout.first.IsZero() {
		c.ready = stdout.first.Sub(c.start)
	}
	c.stdout, c.stderr = stdout.Bytes(), stderr.Bytes()
	var exitErr *exec.ExitError
	switch {
	case errors.As(err, &exitErr):
		c.exitErr = fmt.Errorf("%v: %s", err, lastLine(c.stderr))
	case err != nil:
		return c, fmt.Errorf("start %s: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// runChild runs one of the benchmark's own child jobs and decodes its
// JSON result into out.
func runChild(e *env, job string, out any, args ...string) (child, error) {
	c, err := spawn(e.w, []string{childEnv + "=" + job}, e.self, args...)
	if err != nil {
		return c, err
	}
	if c.exitErr != nil {
		return c, fmt.Errorf("child %s: %w", job, c.exitErr)
	}
	if err := json.Unmarshal(lastLine(c.stdout), out); err != nil {
		return c, fmt.Errorf("child %s: decode result: %w", job, err)
	}
	return c, nil
}

// lastLine is b's last non-empty line.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}
