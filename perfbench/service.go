package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/ralab/are/internal/server"
	"github.com/ralab/are/internal/tenant"
)

// service is one in-process ared server on a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	keys   []string // tenant API keys, empty when auth is off
	cli    *client
}

// tenantKeys are the benchmark's two tenants' API keys.
var tenantKeys = []string{"perfbench-tenant-a-0001", "perfbench-tenant-b-0002"}

// startService brings up the workload's server. dataDir is used only
// by durable workloads and must not exist yet.
func startService(w *workload, dataDir string) (*service, error) {
	s := &service{}
	cfg := server.Config{}
	if w.durable {
		cfg.DataDir = dataDir
	}
	if w.tenants {
		reg, err := tenant.Parse([]byte(fmt.Sprintf(
			`{"tenants":[{"name":"a","key":%q,"maxActive":64},{"name":"b","key":%q,"maxActive":64}]}`,
			tenantKeys[0], tenantKeys[1])))
		if err != nil {
			return nil, err
		}
		cfg.Tenants = reg
		s.keys = tenantKeys
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.cli = newClient("http://" + ln.Addr().String())
	return s, nil
}

// stop closes the listener and every connection, drains the scheduler
// and waits for the serve loop to return.
func (s *service) stop() error {
	s.cli.close()
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// key returns tenant i's API key, or "" when auth is off.
func (s *service) key(i int) string {
	if len(s.keys) == 0 {
		return ""
	}
	return s.keys[i%len(s.keys)]
}

// scratchDir is the benchmark's private working directory inside the
// checkout, removed at exit.
func scratchDir() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
