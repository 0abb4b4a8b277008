package nettrans

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// collector gathers delivered packets behind a mutex (delivery is
// concurrent).
type collector struct {
	mu   sync.Mutex
	pkts [][]byte
}

func (c *collector) handle(_ string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The delivery loops reuse their read buffers (PacketHandler
	// contract), so retained payloads must be copied.
	c.pkts = append(c.pkts, append([]byte(nil), payload...))
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) [][]byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.pkts) >= n {
			out := make([][]byte, len(c.pkts))
			copy(out, c.pkts)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("timed out waiting for %d packets (have %d)", n, len(c.pkts))
	return nil
}

func newPair(t *testing.T) (*Transport, *Transport, *collector, *collector) {
	t.Helper()
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	ca, cb := &collector{}, &collector{}
	a.Run(ca.handle)
	b.Run(cb.handle)
	return a, b, ca, cb
}

func TestUDPRoundTrip(t *testing.T) {
	a, b, _, cb := newPair(t)
	payload := []byte("hello over udp")
	if err := a.SendPacket(b.LocalAddr(), payload, false); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 2*time.Second)
	if !bytes.Equal(got[0], payload) {
		t.Errorf("got %q", got[0])
	}
	_ = a
}

func TestReliableRoundTrip(t *testing.T) {
	a, b, _, cb := newPair(t)
	payload := []byte("hello over tcp")
	if err := a.SendPacket(b.LocalAddr(), payload, true); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 2*time.Second)
	if !bytes.Equal(got[0], payload) {
		t.Errorf("got %q", got[0])
	}
}

func TestLargePayloadGoesOverStream(t *testing.T) {
	a, b, _, cb := newPair(t)
	// Larger than any UDP datagram we send: forced onto TCP.
	payload := bytes.Repeat([]byte{0xAB}, 200_000)
	if err := a.SendPacket(b.LocalAddr(), payload, false); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 5*time.Second)
	if !bytes.Equal(got[0], payload) {
		t.Errorf("large payload corrupted (len %d)", len(got[0]))
	}
}

func TestManyPacketsBothDirections(t *testing.T) {
	a, b, ca, cb := newPair(t)
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.SendPacket(b.LocalAddr(), []byte(fmt.Sprintf("a->b %d", i)), false); err != nil {
			t.Fatal(err)
		}
		if err := b.SendPacket(a.LocalAddr(), []byte(fmt.Sprintf("b->a %d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	// UDP on loopback is effectively lossless; expect everything.
	cb.wait(t, n, 5*time.Second)
	ca.wait(t, n, 5*time.Second)
}

func TestBindFailsOnBadAddress(t *testing.T) {
	if _, err := New("999.999.999.999:1"); err == nil {
		t.Fatal("bad bind address accepted")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendPacket("127.0.0.1:9", []byte("x"), false); err == nil {
		t.Error("send after close succeeded")
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestCloseUnblocksLoops(t *testing.T) {
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Run(func(string, []byte) {})
	done := make(chan struct{})
	go func() {
		a.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on delivery loops")
	}
}

func TestReliableToUnreachableDoesNotBlockCaller(t *testing.T) {
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Run(func(string, []byte) {})

	start := time.Now()
	// TEST-NET-1 address: connection will not succeed; the call must
	// return immediately (async dial).
	if err := a.SendPacket("192.0.2.1:9", []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("reliable send blocked for %v", d)
	}
}

// TestOversizedPayloadRejected pins the send-side bound: a payload
// larger than the stream frame limit is rejected with
// ErrPayloadTooLarge on both channels — a receiver would drop the
// connection unread, so sending it would silently black-hole bytes.
func TestOversizedPayloadRejected(t *testing.T) {
	a, b, _, cb := newPair(t)
	huge := make([]byte, maxStreamMsg+1)
	for _, reliable := range []bool{false, true} {
		err := a.SendPacket(b.LocalAddr(), huge, reliable)
		if !errors.Is(err, ErrPayloadTooLarge) {
			t.Errorf("oversized send (reliable=%v) err = %v, want ErrPayloadTooLarge", reliable, err)
		}
	}
	// The limit itself is still deliverable (over the stream channel).
	if err := a.SendPacket(b.LocalAddr(), bytes.Repeat([]byte{1}, maxPacket+1), false); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, 5*time.Second)
}

// waitGoroutinesBelow polls until the live goroutine count drops to at
// most limit, giving detached sends and delivery loops time to unwind.
func waitGoroutinesBelow(t *testing.T, limit int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines = %d, want <= %d (leak)", runtime.NumGoroutine(), limit)
}

// TestConcurrentSendDuringClose hammers SendPacket from many goroutines
// while the transport shuts down: no panic, every call returns, and no
// goroutine outlives the close (the async reliable senders are
// wg-tracked, so Close must wait for them).
func TestConcurrentSendDuringClose(t *testing.T) {
	base := runtime.NumGoroutine()
	a, b, _, _ := newPair(t)

	var senders sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		senders.Add(1)
		go func(g int) {
			defer senders.Done()
			<-start
			for i := 0; i < 50; i++ {
				// Errors are expected once the transport closes; the
				// contract under test is "no panic, prompt return".
				_ = a.SendPacket(b.LocalAddr(), []byte("x"), i%2 == 0)
			}
		}(g)
	}
	close(start)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	senders.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// +2 slack: runtime housekeeping goroutines that may have spawned.
	waitGoroutinesBelow(t, base+2, 5*time.Second)
}

// TestReliableSurvivesDeadUDPSocket kills the UDP socket out from under
// a live transport: the UDP delivery loop must exit instead of
// hot-spinning, unreliable sends must fail loudly, and the TCP channel
// — the protocol's fallback path — must keep delivering.
func TestReliableSurvivesDeadUDPSocket(t *testing.T) {
	base := runtime.NumGoroutine()
	a, b, _, cb := newPair(t)

	if err := a.udp.Close(); err != nil {
		t.Fatal(err)
	}
	// newPair started 4 delivery loops (2 per transport); the udpLoop of
	// a must exit on net.ErrClosed without Close having been called —
	// observable as the count dropping to 3 loops above baseline.
	waitGoroutinesBelow(t, base+3, 5*time.Second)

	if err := a.SendPacket(b.LocalAddr(), []byte("x"), false); err == nil {
		t.Error("unreliable send on a dead UDP socket succeeded")
	}
	payload := []byte("over tcp despite dead udp")
	if err := a.SendPacket(b.LocalAddr(), payload, true); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1, 5*time.Second)
	if !bytes.Equal(got[0], payload) {
		t.Errorf("got %q", got[0])
	}
	// Close stays clean: it must not hang on the already-dead loop. The
	// double-close error on the UDP socket is reported but harmless.
	done := make(chan struct{})
	go func() { a.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after UDP socket death")
	}
}

func TestAdvertisedAddressUsable(t *testing.T) {
	a, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c := &collector{}
	a.Run(c.handle)
	// Self-send through the advertised address.
	if err := a.SendPacket(a.LocalAddr(), []byte("loop"), false); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, 2*time.Second)
}

// stubListenTCP replaces listenTCP for one test. fail decides, per call
// (numbered from 1), whether the call fails with EADDRINUSE the way a
// taken TCP port does; other calls bind for real. It returns the
// addresses the failed calls were asked to bind.
func stubListenTCP(t *testing.T, fail func(call int) bool) (calls *int, failed *[]*net.TCPAddr) {
	t.Helper()
	calls, failed = new(int), new([]*net.TCPAddr)
	t.Cleanup(func() { listenTCP = net.ListenTCP })
	listenTCP = func(network string, laddr *net.TCPAddr) (*net.TCPListener, error) {
		*calls++
		if fail(*calls) {
			*failed = append(*failed, laddr)
			return nil, &net.OpError{Op: "listen", Net: network, Addr: laddr, Err: os.NewSyscallError("bind", syscall.EADDRINUSE)}
		}
		return net.ListenTCP(network, laddr)
	}
	return calls, failed
}

func TestPortZeroRetriesWhenTCPTwinTaken(t *testing.T) {
	calls, failed := stubListenTCP(t, func(call int) bool { return call <= 2 })
	tr, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("New failed despite retries: %v", err)
	}
	defer tr.Close()
	if *calls != 3 {
		t.Fatalf("listen tcp called %d times, want 3", *calls)
	}
	// Each abandoned attempt must have released its UDP socket.
	for _, a := range *failed {
		u, err := net.ListenUDP("udp", &net.UDPAddr{IP: a.IP, Port: a.Port})
		if err != nil {
			t.Fatalf("UDP socket of a failed attempt still bound: %v", err)
		}
		u.Close()
	}
}

func TestPortZeroRetriesAreBounded(t *testing.T) {
	calls, _ := stubListenTCP(t, func(int) bool { return true })
	if _, err := New("127.0.0.1:0"); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("err = %v, want EADDRINUSE", err)
	}
	if *calls != portZeroAttempts {
		t.Fatalf("listen tcp called %d times, want %d", *calls, portZeroAttempts)
	}
}

func TestExplicitPortTakenFailsAtOnce(t *testing.T) {
	held, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	calls, _ := stubListenTCP(t, func(int) bool { return false })
	_, err = New(held.Addr().String())
	if *calls == 0 {
		t.Skipf("the UDP twin of %v is taken too: %v", held.Addr(), err)
	}
	if !errors.Is(err, syscall.EADDRINUSE) || !strings.HasPrefix(err.Error(), "nettrans: listen tcp") {
		t.Fatalf("err = %v, want a wrapped listen tcp EADDRINUSE", err)
	}
	if *calls != 1 {
		t.Fatalf("listen tcp called %d times for an explicit port, want 1", *calls)
	}
}
