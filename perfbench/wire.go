package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"lifeguard/internal/wire"
)

const (
	// captureEvery and captureMax shape the payload sample: every 16th
	// packet the transport shims see, up to 4096 packets, so the sample
	// spans the run instead of only its first seconds.
	captureEvery = 16
	captureMax   = 4096
)

// wireCapture keeps copies of a sample of the payloads sent in a traced
// run, for replay through the codec after the run.
type wireCapture struct {
	mu      sync.Mutex
	seen    int64
	samples [][]byte
}

func newWireCapture() *wireCapture { return &wireCapture{} }

func (c *wireCapture) offer(payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	if c.seen%captureEvery == 0 && len(c.samples) < captureMax {
		c.samples = append(c.samples, bytes.Clone(payload))
	}
}

func (c *wireCapture) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples
}

// wireReplay is the codec timed on a captured sample.
type wireReplay struct {
	packets    int
	msgsPerPkt float64
	decodeNs   float64 // median over passes, per packet
	encodeNs   float64
}

// replayWire times wire.Unpacker.Decode and wire.EncodePacket on the
// captured payloads, outside the timed phase. It also checks that every
// sampled payload decodes and re-encodes to the same bytes.
func replayWire(samples [][]byte, budget time.Duration) (wireReplay, error) {
	out := wireReplay{packets: len(samples)}
	if len(samples) == 0 {
		return out, nil
	}
	decoded := make([][]wire.Message, len(samples))
	msgs := 0
	for i, b := range samples {
		m, err := wire.DecodePacket(b)
		if err != nil {
			return out, fmt.Errorf("wire replay: sample %d does not decode: %w", i, err)
		}
		if got := wire.EncodePacket(m); !bytes.Equal(got, b) {
			return out, fmt.Errorf("wire replay: sample %d re-encodes to different bytes (%d vs %d)", i, len(got), len(b))
		}
		decoded[i] = m
		msgs += len(m)
	}
	out.msgsPerPkt = float64(msgs) / float64(len(samples))

	decodePass := func() {
		u := wire.AcquireUnpacker()
		for _, b := range samples {
			if _, err := u.Decode(b); err != nil {
				panic(err) // every sample decoded above
			}
		}
		u.Release()
	}
	encodePass := func() {
		for _, m := range decoded {
			sinkBytes = wire.EncodePacket(m)
		}
	}
	out.decodeNs = timePasses(decodePass, len(samples), budget/2)
	out.encodeNs = timePasses(encodePass, len(samples), budget/2)
	return out, nil
}

// sinkBytes keeps the encoder's result alive so the compiler cannot
// drop the timed call.
var sinkBytes []byte

// timePasses runs pass until budget is spent (at least five times) and
// returns the median time per item.
func timePasses(pass func(), items int, budget time.Duration) float64 {
	pass() // warm pools and caches
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		pass()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(items))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}
