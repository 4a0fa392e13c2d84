package agent

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/procfs"
	"perfsight/internal/wire"
)

// TestConcurrentClientsAgainstLiveDatapath hammers one agent with many
// TCP clients while the datapath keeps mutating the counters underneath —
// the production shape of a polled agent. Validated under -race.
func TestConcurrentClientsAgainstLiveDatapath(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go a.Serve(ln)

	// Keep the dataplane hot while clients query.
	stop := make(chan struct{})
	var tickerWG sync.WaitGroup
	tickerWG.Add(1)
	go func() {
		defer tickerWG.Done()
		now := 100 * time.Millisecond
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.OfferWire([]dataplane.Batch{{Flow: "f1", Packets: 20, Bytes: 20 * 1448}}, time.Millisecond)
			m.Tick(now, time.Millisecond)
			now += time.Millisecond
		}
	}()

	const clients = 8
	const queriesPerClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for q := 0; q < queriesPerClient; q++ {
				if err := wire.Write(conn, &wire.Message{
					Type: wire.TypeQuery, ID: uint64(q),
					Query: &wire.Query{All: true},
				}); err != nil {
					errs <- err
					return
				}
				resp, err := wire.Read(conn)
				if err != nil {
					errs <- err
					return
				}
				if resp.Type != wire.TypeResponse || len(resp.Records) == 0 {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	tickerWG.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent client failed: %v", err)
		}
	}
	queries, _ := a.Stats()
	if queries < clients*queriesPerClient {
		t.Fatalf("agent served %d queries; want >= %d", queries, clients*queriesPerClient)
	}
}

// TestRegisterUnregisterDuringQueries churns the element set while queries
// are in flight (VM placement changes under load).
func TestRegisterUnregisterDuringQueries(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := core.ElementID("m0/churn")
			a.Register(&DirectAdapter{E: churnElem{id}})
			a.Unregister(id)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			a.Fetch(nil, nil, true)
		}
		close(stop)
	}()
	wg.Wait()
}

// TestConcurrentFetchesSeeOneRenderEach: whole-machine queries from
// several connections at once, with the element set churning underneath,
// each get every row of a shared file from one render of it — a fetch
// never mixes its rows with another's, nor with its own previous read.
func TestConcurrentFetchesSeeOneRenderEach(t *testing.T) {
	a := buildTestAgent(t, vmMachine(2), BuildOptions{UseMboxSockets: true})
	// A device file whose every counter is the number of the render that
	// produced it, and one adapter per device.
	const devices = 6
	fs := procfs.New()
	var renders atomic.Uint64
	fs.Mount("/stamp/dev", func() []byte {
		n := renders.Add(1)
		devs := make([]procfs.NetDevStats, devices)
		for i := range devs {
			devs[i] = procfs.NetDevStats{Name: fmt.Sprintf("stamp%d", i), RxBytes: n, TxBytes: n}
		}
		return procfs.FormatNetDev(devs)
	})
	for i := 0; i < devices; i++ {
		a.Register(&NetDevAdapter{ID: core.ElementID(fmt.Sprintf("m0/stamp%d", i)), DevKind: core.KindTUN,
			FS: fs, Path: "/stamp/dev", Dev: fmt.Sprintf("stamp%d", i)})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go a.Serve(ln)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.Register(&DirectAdapter{E: churnElem{"m0/churn"}})
			a.Unregister("m0/churn")
		}
	}()

	const clients, queries = 6, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			last := 0.0
			for q := 0; q < queries; q++ {
				if err := wire.Write(conn, &wire.Message{Type: wire.TypeQuery, ID: uint64(q), Query: &wire.Query{All: true}}); err != nil {
					t.Error(err)
					return
				}
				resp, err := wire.Read(conn)
				if err != nil || resp.Type != wire.TypeResponse || resp.Error != "" {
					t.Errorf("query %d: %+v, %v", q, resp, err)
					return
				}
				stamped, render := 0, 0.0
				for _, r := range resp.Records {
					if r.Kind() != core.KindTUN || r.GetOr(core.AttrQueueCap, -1) != 0 {
						continue // not a stamp device
					}
					rx, tx := r.GetOr(core.AttrRxBytes, -1), r.GetOr(core.AttrTxBytes, -2)
					if stamped++; stamped == 1 {
						render = rx
					}
					if rx != render || tx != render {
						t.Errorf("query %d: %s is from render %v/%v, its fetch's first row from %v", q, r.Element, rx, tx, render)
					}
				}
				if stamped != devices || render <= last {
					t.Errorf("query %d: %d stamp rows from render %v, after render %v", q, stamped, render, last)
				}
				last = render
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if got := renders.Load(); got != clients*queries {
		t.Errorf("%d renders for %d fetches; want one each", got, clients*queries)
	}
}

type churnElem struct{ id core.ElementID }

func (c churnElem) ID() core.ElementID            { return c.id }
func (c churnElem) Kind() core.ElementKind        { return core.KindUnknown }
func (c churnElem) Snapshot(ts int64) core.Record { return core.Record{Timestamp: ts, Element: c.id} }
