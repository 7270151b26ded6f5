package netcomm_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"jsweep/internal/comm"
	"jsweep/internal/commtest"
	"jsweep/internal/netcomm"
)

// startCluster brings up an n-rank TCP cluster over loopback inside this
// process (one transport per rank) and returns the endpoints plus a
// closer for everything.
func startCluster(t testing.TB, n int) ([]comm.Endpoint, func() error) {
	_, eps, closeAll := startClusterOpts(t, n, func(int, *netcomm.Options) {})
	return eps, closeAll
}

// startClusterOpts is startCluster with a per-rank Options hook (wire
// mode, host identity overrides) and access to the transports.
func startClusterOpts(t testing.TB, n int, mod func(rank int, o *netcomm.Options)) ([]*netcomm.Transport, []comm.Endpoint, func() error) {
	t.Helper()
	cluster := fmt.Sprintf("test-%s-%d", t.Name(), time.Now().UnixNano())
	rz, err := netcomm.StartRendezvous("127.0.0.1:0", cluster, n)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*netcomm.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := netcomm.Options{
				Cluster:    cluster,
				Rank:       r,
				World:      n,
				Rendezvous: rz.Addr(),
				Wire:       netcomm.WireTCP,
				Timeout:    30 * time.Second,
			}
			mod(r, &o)
			trs[r], errs[r] = netcomm.Join(o)
		}(r)
	}
	wg.Wait()
	if err := rz.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	eps := make([]comm.Endpoint, n)
	for r := 0; r < n; r++ {
		eps[r] = trs[r].Endpoint(r)
		if eps[r] == nil {
			t.Fatalf("rank %d: nil local endpoint", r)
		}
		if trs[r].Endpoint((r+1)%n) != nil && n > 1 {
			t.Fatalf("rank %d: remote endpoint is not nil", r)
		}
	}
	closeAll := func() error {
		var wg sync.WaitGroup
		for _, tr := range trs {
			wg.Add(1)
			go func(tr *netcomm.Transport) {
				defer wg.Done()
				tr.Close()
			}(tr)
		}
		wg.Wait()
		return nil
	}
	return trs, eps, closeAll
}

func tcpBackend() commtest.Backend {
	return commtest.Backend{Name: "tcp", New: startCluster}
}

// udsBackend runs every rank pair over Unix-domain sockets: WireUDS
// forces the fast path, so a pair falling back to TCP would fail the
// bring-up rather than silently weaken the suite.
func udsBackend() commtest.Backend {
	return commtest.Backend{Name: "uds", New: func(t testing.TB, n int) ([]comm.Endpoint, func() error) {
		trs, eps, closeAll := startClusterOpts(t, n, func(_ int, o *netcomm.Options) {
			o.Wire = netcomm.WireUDS
		})
		for r, tr := range trs {
			if n > 1 && tr.FastPeers() != n-1 {
				t.Fatalf("rank %d: %d of %d peers on the fast path", r, tr.FastPeers(), n-1)
			}
		}
		return eps, closeAll
	}}
}

func TestTCPConformance(t *testing.T) { commtest.RunConformance(t, tcpBackend()) }

func TestTCPStress(t *testing.T) { commtest.RunStress(t, tcpBackend()) }

func TestUDSConformance(t *testing.T) { commtest.RunConformance(t, udsBackend()) }

func TestUDSStress(t *testing.T) { commtest.RunStress(t, udsBackend()) }

func TestLocalRanks(t *testing.T) {
	eps, closeAll := startCluster(t, 3)
	defer closeAll()
	if len(eps) != 3 {
		t.Fatalf("got %d endpoints", len(eps))
	}
	for r, ep := range eps {
		if ep.Rank() != r {
			t.Errorf("endpoint %d reports rank %d", r, ep.Rank())
		}
	}
}

func TestWireStatsAndCoalescing(t *testing.T) {
	cluster := fmt.Sprintf("stats-%d", time.Now().UnixNano())
	rz, err := netcomm.StartRendezvous("127.0.0.1:0", cluster, 2)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*netcomm.Transport, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = netcomm.Join(netcomm.Options{
				Cluster: cluster, Rank: r, World: 2, Rendezvous: rz.Addr(),
			})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer closeConcurrently(trs...)

	const n, payload = 50, 100
	for i := 0; i < n; i++ {
		if err := trs[0].Endpoint(0).Send(1, make([]byte, payload)); err != nil {
			t.Fatal(err)
		}
	}
	ep1 := trs[1].Endpoint(1)
	got := 0
	deadline := time.Now().Add(20 * time.Second)
	for got < n && time.Now().Before(deadline) {
		if _, ok := ep1.TryRecv(); ok {
			got++
			continue
		}
		select {
		case <-ep1.Notify():
		case <-time.After(time.Millisecond):
		}
	}
	if got != n {
		t.Fatalf("received %d of %d", got, n)
	}
	ws := trs[0].WireStats()
	if ws.FramesSent != n {
		t.Errorf("FramesSent = %d, want %d", ws.FramesSent, n)
	}
	wantBytes := int64(n * (netcomm.HeaderSize + payload))
	if ws.BytesOut != wantBytes {
		t.Errorf("BytesOut = %d, want %d", ws.BytesOut, wantBytes)
	}
	rs := trs[1].WireStats()
	if rs.FramesReceived != n || rs.BytesIn != wantBytes {
		t.Errorf("receiver wire stats = %+v, want %d frames / %d bytes", rs, n, wantBytes)
	}
}

func TestJoinValidation(t *testing.T) {
	if _, err := netcomm.Join(netcomm.Options{World: 0}); err == nil {
		t.Error("world 0 accepted")
	}
	if _, err := netcomm.Join(netcomm.Options{World: 2, Rank: 2}); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := netcomm.Join(netcomm.Options{World: 2, Rank: 0}); err == nil {
		t.Error("missing rendezvous accepted")
	}
}

func TestRendezvousRefusals(t *testing.T) {
	cluster := fmt.Sprintf("refuse-%d", time.Now().UnixNano())
	rz, err := netcomm.StartRendezvous("127.0.0.1:0", cluster, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Close()

	join := func(c string, rank, world int) error {
		_, err := netcomm.Join(netcomm.Options{
			Cluster: c, Rank: rank, World: world, Rendezvous: rz.Addr(),
			Timeout: 10 * time.Second,
		})
		return err
	}
	if err := join("wrong-cluster", 0, 2); err == nil {
		t.Error("wrong cluster id accepted")
	}
	if err := join(cluster, 0, 3); err == nil {
		t.Error("wrong world size accepted")
	}

	// A complete, valid bring-up still succeeds after the refusals.
	var wg sync.WaitGroup
	trs := make([]*netcomm.Transport, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = netcomm.Join(netcomm.Options{
				Cluster: cluster, Rank: r, World: 2, Rendezvous: rz.Addr(),
				Timeout: 20 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	closeConcurrently(trs...)
}

// closeConcurrently closes several in-process transports at once: Close
// is collective (each rank's reader finishes at the peer's EOF), so
// sequential closes of one cluster's transports would ride the timeout.
func closeConcurrently(trs ...*netcomm.Transport) {
	var wg sync.WaitGroup
	for _, tr := range trs {
		wg.Add(1)
		go func(tr *netcomm.Transport) {
			defer wg.Done()
			tr.Close()
		}(tr)
	}
	wg.Wait()
}

func TestRendezvousDuplicateRank(t *testing.T) {
	cluster := fmt.Sprintf("dup-%d", time.Now().UnixNano())
	rz, err := netcomm.StartRendezvous("127.0.0.1:0", cluster, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Close()
	done := make(chan error, 1)
	go func() {
		_, err := netcomm.Join(netcomm.Options{
			Cluster: cluster, Rank: 0, World: 2, Rendezvous: rz.Addr(),
			Timeout: 20 * time.Second,
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := joinOnlyRegister(rz.Addr(), cluster, 0, 2); err == nil {
		t.Error("duplicate rank accepted by rendezvous")
	}
	rz.Close() // abort the half-joined cluster
	<-done
}

// joinOnlyRegister performs just the rendezvous registration and reports
// whether the rendezvous refused it.
func joinOnlyRegister(addr, cluster string, rank, world int) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	payload := netcomm.AppendJoin(nil, netcomm.JoinRequest{
		Rank: rank, World: world, Cluster: cluster, Addr: "127.0.0.1:1",
	})
	buf := netcomm.AppendHeader(nil, netcomm.KindJoin, len(payload))
	buf = append(buf, payload...)
	if _, err := conn.Write(buf); err != nil {
		return nil
	}
	hdr := make([]byte, netcomm.HeaderSize)
	if _, err := readFullConn(conn, hdr); err != nil {
		return nil
	}
	kind, n, err := netcomm.ParseHeader(hdr)
	if err != nil || kind != netcomm.KindAck {
		return nil
	}
	body := make([]byte, n)
	if _, err := readFullConn(conn, body); err != nil {
		return nil
	}
	ack, err := netcomm.ParseAck(body)
	if err != nil || ack.OK {
		return nil
	}
	return fmt.Errorf("refused: %s", ack.Detail)
}

func readFullConn(conn net.Conn, buf []byte) (int, error) {
	off := 0
	for off < len(buf) {
		n, err := conn.Read(buf[off:])
		off += n
		if err != nil {
			return off, err
		}
	}
	return off, nil
}

// TestFailFast: killing one peer's connection poisons the transport —
// sends error out rather than silently dropping, and there is no
// reconnect.
func TestFailFast(t *testing.T) {
	cluster := fmt.Sprintf("fail-%d", time.Now().UnixNano())
	rz, err := netcomm.StartRendezvous("127.0.0.1:0", cluster, 2)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*netcomm.Transport, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = netcomm.Join(netcomm.Options{
				Cluster: cluster, Rank: r, World: 2, Rendezvous: rz.Addr(),
				CloseTimeout: 2 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Abort rank 1 ungracefully (no drain): rank 0's reader sees the
	// connection die and the transport fails fast.
	trs[1].Abort()
	deadline := time.Now().Add(20 * time.Second)
	for {
		err := trs[0].Endpoint(0).Send(1, []byte{1})
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sends kept succeeding after peer died")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := trs[0].Endpoint(0).RecvOOB(); err == nil {
		t.Error("RecvOOB returned nil error on failed transport")
	}
	trs[0].Close()
}

// TestLoopbackPooledSendSteadyStateAllocs pins the zero-copy claim on a
// real socket: a steady-state send/receive/recycle cycle over a TCP
// loopback pair — the sender's write loop recycling the payload after the
// syscall, the receiver's read loop drawing the inbound buffer from the
// pool — allocates nothing per message, in any goroutine of the process.
func TestLoopbackPooledSendSteadyStateAllocs(t *testing.T) {
	eps, closeAll := startCluster(t, 2)
	defer closeAll()
	src, dst := eps[0], eps[1]
	cycle := func() {
		buf := comm.GetBuffer(4096)[:4096]
		if err := comm.SendPooled(src, 1, buf); err != nil {
			t.Fatal(err)
		}
		for {
			if m, ok := dst.TryRecv(); ok {
				comm.PutBuffer(m.Data)
				return
			}
			<-dst.Notify()
		}
	}
	// Warm the pool, the inbox ring and both loops' batch buffers.
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("steady-state loopback send/recv/recycle allocates %.2f times per message", allocs)
	}
}
