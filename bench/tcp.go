package main

import (
	"fmt"
	"net"
	"sync/atomic"

	"perfsight/internal/agent"
)

// served is an agent answering on the host's loopback interface, with the
// bytes it sends counted from outside: what the agent writes is what the
// controller receives.
type served struct {
	ln      net.Listener
	txBytes atomic.Int64
}

// serve starts the agent on a loopback port of the kernel's choosing.
func serve(a *agent.Agent) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve agent %s: %w", a.Machine(), err)
	}
	s := &served{ln: ln}
	// Serve returns when close shuts the listener; its error is that
	// shutdown and carries no news.
	go func() { _ = a.Serve(countingListener{ln, &s.txBytes}) }()
	return s, nil
}

func (s *served) addr() string { return s.ln.Addr().String() }

// close stops accepting; connection handlers end when their peers hang up.
func (s *served) close() { _ = s.ln.Close() }

type countingListener struct {
	net.Listener
	tx *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.tx}, nil
}

type countingConn struct {
	net.Conn
	tx *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}
