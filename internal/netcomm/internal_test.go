package netcomm

// White-box tests of the failure paths the black-box cluster tests
// cannot reach: corrupt frames on an established connection, refused
// peer handshakes during mesh bring-up, and a rendezvous speaking the
// wrong protocol.

import (
	"encoding/binary"
	"fmt"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipeTransport builds a minimal 2-rank transport whose single peer
// connection is one end of a net.Pipe, so a test can inject arbitrary
// bytes into the read loop.
func pipeTransport(t *testing.T) (*Transport, net.Conn) {
	t.Helper()
	server, client := net.Pipe()
	tr := &Transport{rank: 0, world: 2, peers: make([]*peer, 2), closeTimeout: 200 * time.Millisecond}
	tr.ep = &Endpoint{t: tr, notify: make(chan struct{}, 1)}
	tr.ep.oobCond = sync.NewCond(&tr.ep.mu)
	p := &peer{rank: 1, conn: server, wdone: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	tr.peers[1] = p
	tr.readWG.Add(1)
	go tr.readLoop(p)
	go tr.writeLoop(p)
	t.Cleanup(func() {
		client.Close()
		tr.Close()
	})
	return tr, client
}

func awaitFailure(t *testing.T, tr *Transport) error {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := tr.aliveErr(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("transport never failed")
	return nil
}

func TestReadLoopRejectsCorruptFrames(t *testing.T) {
	cases := []struct {
		name string
		feed func(c net.Conn)
		want string
	}{
		{"bad magic", func(c net.Conn) {
			c.Write([]byte{0, 0, Version, KindData, 0, 0, 0, 0})
		}, "bad magic"},
		{"version mismatch", func(c net.Conn) {
			h := AppendHeader(nil, KindData, 0)
			h[2] = Version + 3
			c.Write(h)
		}, "unsupported wire version"},
		{"handshake kind mid-stream", func(c net.Conn) {
			c.Write(AppendHeader(nil, KindJoin, 0))
		}, "unexpected join frame"},
		{"oversized length", func(c net.Conn) {
			h := AppendHeader(nil, KindData, 0)
			binary.LittleEndian.PutUint32(h[4:], MaxFrameBytes+7)
			c.Write(h)
		}, "exceeds cap"},
		{"truncated payload", func(c net.Conn) {
			c.Write(AppendHeader(nil, KindData, 100))
			c.Write([]byte{1, 2, 3})
			c.Close()
		}, "payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, client := pipeTransport(t)
			go tc.feed(client)
			err := awaitFailure(t, tr)
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("failure %q does not mention %q", err, tc.want)
			}
			// Fail-fast: subsequent operations surface the same error.
			if serr := tr.ep.Send(1, []byte{1}); serr == nil {
				t.Fatal("send succeeded on failed transport")
			}
		})
	}
}

func TestEndpointAccessors(t *testing.T) {
	tr, client := pipeTransport(t)
	if tr.NumRanks() != 2 || tr.Rank() != 0 {
		t.Fatalf("NumRanks/Rank = %d/%d", tr.NumRanks(), tr.Rank())
	}
	if lr := tr.LocalRanks(); len(lr) != 1 || lr[0] != 0 {
		t.Fatalf("LocalRanks = %v", lr)
	}
	if tr.Endpoint(1) != nil {
		t.Fatal("remote endpoint not nil")
	}
	if tr.ep.Pending() != 0 {
		t.Fatal("fresh endpoint has pending messages")
	}
	// A valid frame flows into the inbox and Pending sees it.
	frame := AppendHeader(nil, KindData, 3)
	frame = append(frame, 1, 2, 3)
	go client.Write(frame)
	deadline := time.Now().Add(5 * time.Second)
	for tr.ep.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tr.ep.Pending() != 1 {
		t.Fatalf("Pending = %d", tr.ep.Pending())
	}
	if err := tr.ep.Send(5, nil); err == nil {
		t.Fatal("send to out-of-range rank succeeded")
	}
	for _, k := range []byte{KindData, KindOOB, KindJoin, KindPeer, KindAck, KindPeers, KindBye, 0x77} {
		if kindName(k) == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestRendezvousWaitTimeout(t *testing.T) {
	rz, err := StartRendezvous("127.0.0.1:0", "nobody-joins", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rz.Wait(50 * time.Millisecond); err == nil {
		t.Fatal("Wait returned nil with no ranks joined")
	}
}

// TestBuildMeshAcceptRefusals drives the accept side of the mesh
// bring-up directly: garbage, wrong kinds and wrong targets are refused
// without aborting, and a subsequent valid handshake still lands.
func TestBuildMeshAcceptRefusals(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	o := Options{Cluster: "mesh", Rank: 0, World: 2}
	deadline := time.Now().Add(20 * time.Second)
	done := make(chan error, 1)
	var conns []meshConn
	go func() {
		cs, err := buildMesh(o, meshListeners{tcp: ln}, []PeerAddr{{}, {}}, deadline)
		conns = cs
		done <- err
	}()

	dial := func() net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	expectRefusal := func(c net.Conn, detail string) {
		t.Helper()
		kind, payload, err := readUnit(c)
		if err != nil {
			t.Fatalf("no refusal ack: %v", err)
		}
		if kind != KindAck {
			t.Fatalf("got %s, want refusal ack", kindName(kind))
		}
		a, err := ParseAck(payload)
		if err != nil || a.OK {
			t.Fatalf("ack = %+v, %v", a, err)
		}
		if detail != "" && !strings.Contains(a.Detail, detail) {
			t.Fatalf("refusal %q does not mention %q", a.Detail, detail)
		}
		c.Close()
	}

	// Garbage bytes.
	c := dial()
	c.Write([]byte{9, 9, 9, 9, 9, 9, 9, 9})
	expectRefusal(c, "bad peer unit")
	// A join where a peer handshake belongs.
	c = dial()
	sendUnit(c, KindJoin, AppendJoin(nil, JoinRequest{Rank: 1, World: 2, Cluster: "mesh", Addr: "x"}))
	expectRefusal(c, "expected peer handshake")
	// Wrong cluster.
	c = dial()
	sendUnit(c, KindPeer, AppendPeer(nil, Peer{From: 1, To: 0, World: 2, Cluster: "other"}))
	expectRefusal(c, "wrong cluster")
	// Wrong target rank.
	c = dial()
	sendUnit(c, KindPeer, AppendPeer(nil, Peer{From: 1, To: 1, World: 2, Cluster: "mesh"}))
	expectRefusal(c, "targets rank")
	// Wrong world.
	c = dial()
	sendUnit(c, KindPeer, AppendPeer(nil, Peer{From: 1, To: 0, World: 3, Cluster: "mesh"}))
	expectRefusal(c, "world")
	// Dialer rank out of range (<= acceptor).
	c = dial()
	sendUnit(c, KindPeer, AppendPeer(nil, Peer{From: 0, To: 0, World: 2, Cluster: "mesh"}))
	expectRefusal(c, "unexpected dialer rank")

	// Finally a valid handshake completes the mesh.
	c = dial()
	sendUnit(c, KindPeer, AppendPeer(nil, Peer{From: 1, To: 0, World: 2, Cluster: "mesh"}))
	kind, payload, err := readUnit(c)
	if err != nil || kind != KindAck {
		t.Fatalf("valid handshake: %v %v", kindName(kind), err)
	}
	if a, _ := ParseAck(payload); !a.OK {
		t.Fatalf("valid handshake refused: %+v", a)
	}
	if err := <-done; err != nil {
		t.Fatalf("buildMesh: %v", err)
	}
	c.Close()
	for _, pc := range conns {
		if pc.conn != nil {
			pc.conn.Close()
		}
	}
}

// TestBuildMeshDialRefused covers the dial side: the peer answers the
// handshake with a refusal and buildMesh aborts with its detail.
func TestBuildMeshDialRefused(t *testing.T) {
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peerLn.Close()
	go func() {
		c, err := peerLn.Accept()
		if err != nil {
			return
		}
		readUnit(c)
		sendUnit(c, KindAck, AppendAck(nil, Ack{OK: false, Detail: "not today"}))
		c.Close()
	}()
	myLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer myLn.Close()
	o := Options{Cluster: "mesh", Rank: 1, World: 2}
	_, err = buildMesh(o, meshListeners{tcp: myLn}, []PeerAddr{{TCP: peerLn.Addr().String()}, {}}, time.Now().Add(10*time.Second))
	if err == nil || !strings.Contains(err.Error(), "not today") {
		t.Fatalf("dial refusal not surfaced: %v", err)
	}
}

// TestRegisterProtocolErrors covers a rendezvous answering the join with
// the wrong kind or a malformed peer list.
func TestRegisterProtocolErrors(t *testing.T) {
	serve := func(t *testing.T, reply func(c net.Conn)) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			readUnit(c)
			reply(c)
			c.Close()
		}()
		return ln.Addr().String()
	}
	o := Options{Cluster: "c", Rank: 0, World: 2, Timeout: 10 * time.Second}
	deadline := time.Now().Add(10 * time.Second)

	addr := serve(t, func(c net.Conn) { sendUnit(c, KindData, []byte("?")) })
	o.Rendezvous = addr
	if _, err := register(o, PeerAddr{TCP: "x"}, deadline); err == nil || !strings.Contains(err.Error(), "answered with data") {
		t.Fatalf("wrong-kind answer: %v", err)
	}

	addr = serve(t, func(c net.Conn) {
		sendUnit(c, KindPeers, AppendPeers(nil, Peers{Addrs: []PeerAddr{{TCP: "only-one"}}}))
	})
	o.Rendezvous = addr
	if _, err := register(o, PeerAddr{TCP: "x"}, deadline); err == nil || !strings.Contains(err.Error(), "want 2") {
		t.Fatalf("short peer list: %v", err)
	}

	addr = serve(t, func(c net.Conn) { sendUnit(c, KindAck, AppendAck(nil, Ack{OK: false, Detail: "go away"})) })
	o.Rendezvous = addr
	if _, err := register(o, PeerAddr{TCP: "x"}, deadline); err == nil || !strings.Contains(err.Error(), "go away") {
		t.Fatalf("refusal detail lost: %v", err)
	}
}

// stubAddr/failingConn: a net.Conn whose writes fail (optionally after a
// byte budget), for driving the writeLoop's failure paths.
type stubAddr struct{}

func (stubAddr) Network() string { return "stub" }
func (stubAddr) String() string  { return "stub" }

type failingConn struct {
	mu     sync.Mutex
	budget int // bytes accepted before writes start failing
	closed bool
	ch     chan struct{}
}

func newFailingConn(budget int) *failingConn {
	return &failingConn{budget: budget, ch: make(chan struct{})}
}

func (c *failingConn) Read(b []byte) (int, error) { <-c.ch; return 0, errClosedStub }

func (c *failingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget >= len(b) {
		c.budget -= len(b)
		return len(b), nil
	}
	n := c.budget
	c.budget = 0
	return n, errWireTorn
}

func (c *failingConn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
	c.mu.Unlock()
	return nil
}

func (c *failingConn) LocalAddr() net.Addr                { return stubAddr{} }
func (c *failingConn) RemoteAddr() net.Addr               { return stubAddr{} }
func (c *failingConn) SetDeadline(t time.Time) error      { return nil }
func (c *failingConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *failingConn) SetWriteDeadline(t time.Time) error { return nil }

var (
	errWireTorn   = fmt.Errorf("wire torn")
	errClosedStub = fmt.Errorf("stub closed")
)

// writerTransport builds a 2-rank transport with only the write loop
// running against the given connection.
func writerTransport(t *testing.T, conn net.Conn) *Transport {
	t.Helper()
	tr := &Transport{rank: 0, world: 2, peers: make([]*peer, 2), closeTimeout: 500 * time.Millisecond}
	tr.ep = &Endpoint{t: tr, notify: make(chan struct{}, 1)}
	tr.ep.oobCond = sync.NewCond(&tr.ep.mu)
	p := &peer{rank: 1, conn: conn, network: "stub", wdone: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	tr.peers[1] = p
	go tr.writeLoop(p)
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestWireStatsNotCountedOnFailedWrite pins the accounting bugfix: a
// frame that never reached the wire must not show up in FramesSent or
// BytesOut.
func TestWireStatsNotCountedOnFailedWrite(t *testing.T) {
	tr := writerTransport(t, newFailingConn(0))
	if err := tr.ep.Send(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	err := awaitFailure(t, tr)
	if !strings.Contains(err.Error(), "write to rank 1") {
		t.Fatalf("failure %q does not mention the failed write", err)
	}
	if ws := tr.WireStats(); ws.FramesSent != 0 || ws.BytesOut != 0 {
		t.Fatalf("failed write counted as sent: %+v", ws)
	}
}

// TestWireStatsPartialBatch: a writev that dies mid-batch counts exactly
// the frames that fully reached the wire.
func TestWireStatsPartialBatch(t *testing.T) {
	const payload = 64
	// Budget admits the first frame plus the second frame's header only.
	tr := writerTransport(t, newFailingConn(2*HeaderSize+payload))
	p := tr.peers[1]
	p.mu.Lock()
	p.outq = append(p.outq,
		wireMsg{kind: KindData, payload: make([]byte, payload)},
		wireMsg{kind: KindData, payload: make([]byte, payload)})
	p.cond.Signal()
	p.mu.Unlock()
	awaitFailure(t, tr)
	ws := tr.WireStats()
	if ws.FramesSent != 1 || ws.BytesOut != int64(HeaderSize+payload) {
		t.Fatalf("partial batch stats = %+v, want 1 frame / %d bytes", ws, HeaderSize+payload)
	}
}

func TestCompleteFrames(t *testing.T) {
	batch := []wireMsg{
		{kind: KindData, payload: make([]byte, 10)},
		{kind: KindData, payload: make([]byte, 20)},
	}
	sz0, sz1 := int64(HeaderSize+10), int64(HeaderSize+20)
	cases := []struct {
		written, frames, bytes int64
	}{
		{0, 0, 0},
		{sz0 - 1, 0, 0},
		{sz0, 1, sz0},
		{sz0 + sz1 - 1, 1, sz0},
		{sz0 + sz1, 2, sz0 + sz1},
	}
	for _, c := range cases {
		f, b := completeFrames(batch, c.written)
		if f != c.frames || b != c.bytes {
			t.Errorf("completeFrames(%d) = %d frames/%d bytes, want %d/%d", c.written, f, b, c.frames, c.bytes)
		}
	}
}

// TestByeWriteFailureRecorded pins the clean-shutdown bugfix: a Bye that
// never reaches the peer is a real failure (the peer will report a fake
// crash), so the transport must record it instead of pretending the
// close was clean.
func TestByeWriteFailureRecorded(t *testing.T) {
	tr := writerTransport(t, newFailingConn(0))
	tr.Close()
	err := tr.aliveErr()
	if err == nil || !strings.Contains(err.Error(), "shutdown bye to rank 1") {
		t.Fatalf("lost bye not recorded: %v", err)
	}
}

// TestNetEndpointClearsQueueSlots pins the retention bugfix on the
// netcomm endpoint: popped queue slots must not keep referencing the
// consumed payloads. The inbox rings keep their backing arrays, so a
// payload they still pinned would never be collected: every consumed
// payload's finalizer must run.
func TestNetEndpointClearsQueueSlots(t *testing.T) {
	tr := &Transport{rank: 0, world: 2, peers: make([]*peer, 2)}
	tr.ep = &Endpoint{t: tr, notify: make(chan struct{}, 1)}
	tr.ep.oobCond = sync.NewCond(&tr.ep.mu)
	e := tr.ep
	const n = 8
	var freed atomic.Int32
	payload := func() []byte {
		p := new([64]byte)
		goruntime.SetFinalizer(p, func(*[64]byte) { freed.Add(1) })
		return p[:]
	}
	for i := 0; i < n; i++ {
		e.deliver(1, payload(), false)
		e.deliver(1, payload(), true)
	}
	for i := 0; i < n; i++ {
		if _, ok := e.TryRecv(); !ok {
			t.Fatalf("message %d missing", i)
		}
		if _, err := e.RecvOOB(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < 2*n && time.Now().Before(deadline) {
		goruntime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != 2*n {
		t.Fatalf("%d of %d consumed payloads are still reachable from the endpoint", 2*n-got, 2*n)
	}
	goruntime.KeepAlive(e)
}

// TestDialTarget pins the three-tier transport-selection rule.
func TestDialTarget(t *testing.T) {
	co := PeerAddr{TCP: "127.0.0.1:1", Unix: "/tmp/x.sock", Host: "hostA", Shm: true}
	coNoShm := PeerAddr{TCP: "127.0.0.1:1", Unix: "/tmp/x.sock", Host: "hostA"}
	coNoUnix := PeerAddr{TCP: "127.0.0.1:1", Host: "hostA"}
	remote := PeerAddr{TCP: "127.0.0.1:2", Host: "hostB", Shm: true}
	cases := []struct {
		name     string
		wire     Wire
		addr     PeerAddr
		hostID   string
		shmOK    bool
		network  string
		shm      bool
		degraded bool
		wantErr  bool
	}{
		{name: "auto co-located", wire: WireAuto, addr: co, hostID: "hostA", shmOK: true, network: "unix", shm: true},
		{name: "auto co-located peer without shm", wire: WireAuto, addr: coNoShm, hostID: "hostA", shmOK: true, network: "unix"},
		{name: "auto co-located local without shm", wire: WireAuto, addr: co, hostID: "hostA", network: "unix"},
		{name: "auto remote", wire: WireAuto, addr: remote, hostID: "hostA", shmOK: true, network: "tcp"},
		{name: "auto co-located no unix socket", wire: WireAuto, addr: coNoUnix, hostID: "hostA", shmOK: true, network: "tcp", degraded: true},
		{name: "auto empty host id", wire: WireAuto, addr: co, hostID: "", shmOK: true, network: "tcp"},
		{name: "tcp forced", wire: WireTCP, addr: co, hostID: "hostA", shmOK: true, network: "tcp"},
		{name: "uds co-located skips shm", wire: WireUDS, addr: co, hostID: "hostA", shmOK: true, network: "unix"},
		{name: "uds remote", wire: WireUDS, addr: remote, hostID: "hostA", shmOK: true, wantErr: true},
		{name: "shm co-located", wire: WireShm, addr: co, hostID: "hostA", shmOK: true, network: "unix", shm: true},
		{name: "shm peer without capability", wire: WireShm, addr: coNoShm, hostID: "hostA", shmOK: true, wantErr: true},
		{name: "shm remote", wire: WireShm, addr: remote, hostID: "hostA", shmOK: true, wantErr: true},
	}
	for _, c := range cases {
		network, addr, shm, degraded, err := dialTarget(c.wire, c.addr, c.hostID, c.shmOK)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: no error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if network != c.network || shm != c.shm || degraded != c.degraded {
			t.Errorf("%s: (network, shm, degraded) = (%q, %v, %v), want (%q, %v, %v)",
				c.name, network, shm, degraded, c.network, c.shm, c.degraded)
		}
		want := c.addr.TCP
		if network == "unix" {
			want = c.addr.Unix
		}
		if addr != want {
			t.Errorf("%s: addr %q, want %q", c.name, addr, want)
		}
	}
}

func TestParseWire(t *testing.T) {
	for s, w := range map[string]Wire{"": WireAuto, "auto": WireAuto, "tcp": WireTCP, "uds": WireUDS, "unix": WireUDS, "shm": WireShm} {
		got, err := ParseWire(s)
		if err != nil || got != w {
			t.Errorf("ParseWire(%q) = %v, %v", s, got, err)
		}
		if got.String() == "" {
			t.Errorf("Wire(%v).String() empty", got)
		}
	}
	if _, err := ParseWire("carrier-pigeon"); err == nil {
		t.Error("bogus wire accepted")
	}
}
