package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"reactivespec/internal/server"
)

// daemon is one reactived child process.
type daemon struct {
	name   string
	dir    string // its state directory
	cmd    *exec.Cmd
	exited chan struct{}
	base   string // http://host:port
	stream string // unix://path, when it serves streams
	repl   string // replication listener address, when it ships
	client *server.Client
}

var (
	childrenMu sync.Mutex
	children   = map[*daemon]bool{}
)

// killAll SIGKILLs every daemon still running and waits for each to exit.
func killAll() {
	childrenMu.Lock()
	list := make([]*daemon, 0, len(children))
	for d := range children {
		list = append(list, d)
	}
	childrenMu.Unlock()
	for _, d := range list {
		d.kill()
	}
}

// daemonConfig says how to start one reactived.
type daemonConfig struct {
	name      string
	dir       string
	policy    string
	fsync     string // "" disables the WAL
	stream    bool   // serve unix-socket streams
	ship      bool   // serve replication to followers
	replicaOf string // follow this primary's replication listener
	extra     []string
}

// startDaemon executes reactived and returns once every listener it was
// asked for is published and /healthz answers ok.
func startDaemon(ctx context.Context, bin string, cfg daemonConfig) (*daemon, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	files := map[string]string{"addr": filepath.Join(cfg.dir, "addr")}
	args := []string{
		"-addr", "127.0.0.1:0", "-addr-file", files["addr"],
		"-param-scale", fmt.Sprint(paramScale),
		"-policy", cfg.policy,
	}
	if cfg.fsync != "" {
		args = append(args, "-wal-dir", filepath.Join(cfg.dir, "wal"), "-wal-fsync", cfg.fsync)
	}
	if cfg.stream {
		files["stream"] = filepath.Join(cfg.dir, "stream-target")
		args = append(args, "-stream-unix", filepath.Join(cfg.dir, "s.sock"), "-stream-unix-file", files["stream"])
	}
	if cfg.ship {
		files["repl"] = filepath.Join(cfg.dir, "repl-addr")
		args = append(args, "-replication-addr", "127.0.0.1:0", "-replication-addr-file", files["repl"])
	}
	if cfg.replicaOf != "" {
		args = append(args, "-replica-of", cfg.replicaOf)
	}
	args = append(args, cfg.extra...)
	for _, f := range files {
		os.Remove(f)
	}
	logf, err := os.OpenFile(filepath.Join(cfg.dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(bin, "reactived"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting reactived: %w", err)
	}
	d := &daemon{name: cfg.name, dir: cfg.dir, cmd: cmd, exited: make(chan struct{})}
	childrenMu.Lock()
	children[d] = true
	childrenMu.Unlock()
	go func() {
		cmd.Wait()
		close(d.exited)
	}()

	read := func(key string) (string, error) {
		deadline := time.Now().Add(60 * time.Second)
		for {
			b, err := os.ReadFile(files[key])
			if err == nil && len(b) > 0 {
				return strings.TrimSpace(string(b)), nil
			}
			select {
			case <-d.exited:
				return "", fmt.Errorf("%s exited during start-up: %s", cfg.name, d.logTail())
			case <-ctx.Done():
				return "", ctx.Err()
			default:
			}
			if time.Now().After(deadline) {
				return "", fmt.Errorf("%s published no %s listener within 60s", cfg.name, key)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	fail := func(err error) (*daemon, error) {
		d.kill()
		return nil, err
	}
	addr, err := read("addr")
	if err != nil {
		return fail(err)
	}
	d.base = "http://" + addr
	if cfg.stream {
		if d.stream, err = read("stream"); err != nil {
			return fail(err)
		}
	}
	if cfg.ship {
		if d.repl, err = read("repl"); err != nil {
			return fail(err)
		}
	}
	d.client = server.Connect(d.base,
		server.WithHTTPClient(&http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}),
		server.WithTimeout(30*time.Second))
	h, err := d.client.Healthz(ctx)
	if err != nil {
		return fail(fmt.Errorf("%s /healthz: %w", cfg.name, err))
	}
	if h.Status != "ok" {
		return fail(fmt.Errorf("%s /healthz status %q", cfg.name, h.Status))
	}
	return d, nil
}

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	childrenMu.Lock()
	delete(children, d)
	childrenMu.Unlock()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
	s := strings.TrimSpace(string(b))
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}

// cursorEvents reads /v1/cursor's event count for each key.
func (d *daemon) cursorEvents(ctx context.Context, keys []string) ([]uint64, error) {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		c, err := d.client.Cursor(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("%s /v1/cursor: %w", d.name, err)
		}
		out[i] = c.Events
	}
	return out, nil
}
