package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"eblow/internal/dispatch"
	"eblow/internal/service"
)

// server is one in-process HTTP listener on loopback.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// node is one eblowd solver node: a Manager with a disk WAL behind the
// public HTTP handler, configured as cmd/eblowd configures it by default
// except for the worker count.
type node struct {
	name string
	m    *service.Manager
	http *server
}

// fleet is the system under test: one node, or a dispatcher in front of
// several. base is the URL the client submits to.
type fleet struct {
	dir   string
	nodes []*node
	disp  *dispatch.Dispatcher
	dhttp *server
	base  string
}

// bootFleet opens fresh WALs under a new directory in parent and starts
// the nodes (and the dispatcher).
func bootFleet(parent string, nodes int, withDispatcher bool) (*fleet, error) {
	dir, err := os.MkdirTemp(parent, "fleet-")
	if err != nil {
		return nil, fmt.Errorf("fleet dir: %w", err)
	}
	f := &fleet{dir: dir}
	var cfgs []dispatch.NodeConfig
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("n%d", i+1)
		wal, err := service.OpenWAL(filepath.Join(dir, name+".wal"), service.DefaultWALMaxBytes)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("node %s WAL: %w", name, err)
		}
		m := service.New(service.Config{
			Workers: 1, RecordTTL: time.Hour, MaxPending: 1024, WAL: wal,
			Batch: service.BatchConfig{Enabled: true},
		})
		s, err := serve(service.NewHandler(m))
		if err != nil {
			m.Close()
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, &node{name: name, m: m, http: s})
		cfgs = append(cfgs, dispatch.NodeConfig{Name: name, URL: s.url})
	}
	f.base = f.nodes[0].http.url
	if !withDispatcher {
		return f, nil
	}
	wal, err := dispatch.OpenWAL(filepath.Join(dir, "dispatch.wal"))
	if err != nil {
		f.close()
		return nil, fmt.Errorf("dispatcher WAL: %w", err)
	}
	d, err := dispatch.New(dispatch.Config{
		Nodes: cfgs, HealthInterval: time.Second, FailAfter: 3, WAL: wal,
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "dispatch: "+format+"\n", args...) },
	})
	if err != nil {
		_ = wal.Close()
		f.close()
		return nil, err
	}
	f.disp = d
	if f.dhttp, err = serve(dispatch.NewHandler(d)); err != nil {
		f.close()
		return nil, err
	}
	f.base = f.dhttp.url
	return f, nil
}

// nodeURL returns the named node's base URL.
func (f *fleet) nodeURL(name string) (string, error) {
	for _, n := range f.nodes {
		if n.name == name {
			return n.http.url, nil
		}
	}
	return "", errors.New("no node named " + name)
}

// close stops every server, closes the managers (flushing their WALs) and
// removes the fleet's directory.
func (f *fleet) close() {
	if f.dhttp != nil {
		f.dhttp.close()
	}
	if f.disp != nil {
		f.disp.Close()
	}
	for _, n := range f.nodes {
		n.http.close()
		n.m.Close()
	}
	_ = os.RemoveAll(f.dir)
}
