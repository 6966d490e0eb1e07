package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// startTimeout bounds how long a server may take to start listening.
const startTimeout = 30 * time.Second

// stopTimeout bounds the SIGTERM drain before a server is killed.
const stopTimeout = 15 * time.Second

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

// server is one echoimaged or echoimage-router process.
type server struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  *logTail
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// logTail collects a process's stderr, announcing the first "listening on
// <addr>" line.
type logTail struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	addr   chan string
	stated bool
}

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.stated {
		if m := listeningRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.stated = true
			l.addr <- string(m[1])
		}
	}
	if l.buf.Len() > 1<<20 {
		l.buf.Next(l.buf.Len() - 64<<10)
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf.Bytes()
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(b)
}

// startServer launches bin/name with args and waits until it reports its
// listen address.
func startServer(bin, name string, args ...string) (*server, error) {
	s := &server{
		name: name,
		cmd:  exec.Command(filepath.Join(bin, name), args...),
		log:  &logTail{addr: make(chan string, 1)},
		done: make(chan struct{}),
	}
	s.cmd.Stderr = s.log
	// If the generator dies, the kernel kills the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	select {
	case s.addr = <-s.log.addr:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", name, s.err, s.log)
	case <-time.After(startTimeout):
		s.stop()
		return nil, fmt.Errorf("%s did not listen within %v\n%s", name, startTimeout, s.log)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, kills the process if it has not exited within
// stopTimeout, and waits for it.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	select {
	case <-s.done:
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill() // the process is stuck; Wait below reaps it
		<-s.done
	}
}

// topology is the serving tier of one workload: a single daemon, or a
// router in front of shard daemons.
type topology struct {
	shards []*server
	router *server
}

// startTopology starts shards daemons (1 when shards is 0) and, when
// shards > 0, a router in front of them.
func startTopology(bin string, shards int) (*topology, error) {
	t := &topology{}
	n := shards
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		d, err := startServer(bin, "echoimaged", "-listen", "127.0.0.1:0")
		if err != nil {
			t.stop()
			return nil, err
		}
		t.shards = append(t.shards, d)
	}
	if shards > 0 {
		args := []string{"-listen", "127.0.0.1:0"}
		for i, d := range t.shards {
			args = append(args, "-shard", shardID(i)+"="+d.addr)
		}
		r, err := startServer(bin, "echoimage-router", args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.router = r
	}
	return t, nil
}

// entry is the address clients send authentication traffic to.
func (t *topology) entry() string {
	if t.router != nil {
		return t.router.addr
	}
	return t.shards[0].addr
}

func (t *topology) servers() []*server {
	all := append([]*server(nil), t.shards...)
	if t.router != nil {
		all = append(all, t.router)
	}
	return all
}

// stop stops the router first, then the shards.
func (t *topology) stop() {
	if t.router != nil {
		t.router.stop()
	}
	for _, d := range t.shards {
		d.stop()
	}
}

// cpuMillis sums utime+stime over every server process.
func (t *topology) cpuMillis() (float64, error) {
	var total float64
	for _, s := range t.servers() {
		v, err := cpuMillis(s.pid())
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", s.name, err)
		}
		total += v
	}
	return total, nil
}

// peakRSSMiB sums VmHWM over every server process.
func (t *topology) peakRSSMiB() (float64, error) {
	var total float64
	for _, s := range t.servers() {
		v, err := peakRSSMiB(s.pid())
		if err != nil {
			return 0, fmt.Errorf("%s rss: %w", s.name, err)
		}
		total += v
	}
	return total, nil
}

// shardID names the k-th shard (from 0) as the router knows it.
func shardID(k int) string { return fmt.Sprintf("s%d", k+1) }
