package agent

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
)

// lineChannel is an adapter's connection to a line-oriented stats endpoint
// (a middlebox stats socket, the vswitch control channel): dialled on
// first use, then kept with its reader until Close, and used by one fetch
// at a time.
type lineChannel struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
}

// errReply is an error the endpoint reported in a reply that was read to
// its end: the stream is still in step, so the connection is kept.
type errReply string

func (e errReply) Error() string { return string(e) }

// roundTrip sends req and has read consume the reply. An exchange that
// fails on a connection kept from an earlier fetch is retried once on a
// fresh one, the way controller.TCPClient treats a link that went stale
// between queries; a dial failure, a failure on a fresh connection and an
// errReply are returned as they are. read may run twice.
func (c *lineChannel) roundTrip(dial func() (net.Conn, error), req []byte, read func(*bufio.Reader) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		kept := c.conn != nil
		if !kept {
			conn, err := dial()
			if err != nil {
				return fmt.Errorf("dial: %w", err)
			}
			c.conn = conn
			if c.r == nil {
				c.r = bufio.NewReaderSize(conn, 1024) // a stat line is a few hundred bytes
			} else {
				c.r.Reset(conn)
			}
		}
		_, err := c.conn.Write(req)
		if err != nil {
			err = fmt.Errorf("send: %w", err)
		} else if err = read(c.r); err == nil {
			return nil
		}
		if _, ok := err.(errReply); ok {
			return err
		}
		c.closeLocked()
		if !kept {
			return err
		}
	}
}

func (c *lineChannel) closeLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close drops the connection; the next fetch dials again.
func (c *lineChannel) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

// maxReplyLine bounds a reply line, as the scanner these channels used to
// read with did.
const maxReplyLine = 64 << 10

// readLine returns the next line of a reply without its newline, valid
// until the next read. A line longer than the reader's buffer is pieced
// together in a slice of its own.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := bytes.Clone(line)
		for err == bufio.ErrBufferFull && len(long) < maxReplyLine {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// serveLines is the endpoint's side of a lineChannel: it answers each
// request line on conn with what reply appends to out, until the peer
// hangs up or sends a line longer than any request.
func serveLines(conn net.Conn, reply func(out, req []byte) []byte) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64)
	var out []byte
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return
		}
		out = reply(out[:0], bytes.TrimSpace(line))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// pipeDialer returns a dialer that serves each connection it hands out
// with handle over an in-memory pipe. The handler goroutine ends when the
// client end closes. An adapter keeps that end for its lifetime and agents
// are also simply dropped, so the end closes itself when it becomes
// unreachable, as a dropped *os.File or socket does; without that the
// handler would stay parked on its read, pinning its element, forever.
func pipeDialer(handle func(net.Conn)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		client, server := net.Pipe()
		go handle(server)
		c := &pipeConn{client}
		runtime.SetFinalizer(c, func(c *pipeConn) { c.Close() })
		return c, nil
	}
}

type pipeConn struct{ net.Conn }
