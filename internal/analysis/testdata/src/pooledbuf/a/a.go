// pooledbuf fixtures: positive (use-after-release, plain-Send escape,
// loop-shared release), negative (release-last, re-arm, defer), and
// escape-hatch cases.
package a

import "jsweep/internal/comm"

// useAfterSendPooled is the PR 6 bug class: touching the slice after
// ownership transferred to the transport.
func useAfterSendPooled(ep comm.Endpoint) int {
	buf := comm.GetBuffer(64)
	buf = append(buf, 1, 2, 3)
	_ = comm.SendPooled(ep, 1, buf)
	return len(buf) // want `use of buffer buf after it was released`
}

func useAfterPutBuffer() byte {
	buf := comm.GetBuffer(64)
	buf = append(buf, 9)
	comm.PutBuffer(buf)
	return buf[0] // want `use of buffer buf after it was released`
}

func doublePut() {
	buf := comm.GetBuffer(64)
	comm.PutBuffer(buf)
	comm.PutBuffer(buf) // want `use of buffer buf after it was released`
}

// plainSendEscape loses the buffer to a send that never recycles.
func plainSendEscape(ep comm.Endpoint) {
	buf := comm.GetBuffer(64)
	_ = ep.Send(1, buf) // want `pooled buffer buf passed to plain Send`
}

// loopSharedRelease releases a loop-external buffer every iteration:
// iteration two sends a slice the pool already owns (the AllExchange
// shared-slice shape).
func loopSharedRelease(ep comm.Endpoint, ranks []int) {
	buf := comm.GetBuffer(64)
	for _, r := range ranks {
		_ = comm.SendPooled(ep, r, buf) // want `released inside a loop but declared outside`
	}
}

// releaseLast is the correct shape: the send is the last touch.
func releaseLast(ep comm.Endpoint) error {
	buf := comm.GetBuffer(64)
	buf = append(buf, 7)
	return comm.SendPooled(ep, 1, buf)
}

// reArm re-acquires between releases, so the second use is fresh.
func reArm(ep comm.Endpoint) error {
	buf := comm.GetBuffer(64)
	_ = comm.SendPooled(ep, 1, buf)
	buf = comm.GetBuffer(64)
	return comm.SendPooled(ep, 2, buf)
}

// perIteration declares and releases inside the loop: each iteration
// owns a fresh buffer.
func perIteration(ep comm.Endpoint, ranks []int) {
	for _, r := range ranks {
		buf := comm.GetBuffer(64)
		buf = append(buf, byte(r))
		_ = comm.SendPooled(ep, r, buf)
	}
}

// deferredPut runs at function exit: every body use precedes it.
func deferredPut() int {
	buf := comm.GetBuffer(64)
	defer comm.PutBuffer(buf)
	buf = append(buf, 1)
	return len(buf)
}

// stream mirrors core.Stream: the payload travels as a field.
type stream struct {
	tgt     int
	payload []byte
}

// payloadReadAfterRelease is the remote route gone wrong: the master
// packed the stream into a message, recycled the payload the program
// handed over at Output — and then read it again.
func payloadReadAfterRelease(msg []byte, s stream) []byte {
	msg = append(msg, s.payload...)
	comm.PutBuffer(s.payload)
	return append(msg, s.payload[0]) // want `use of buffer s.payload after it was released`
}

// batchReadAfterRelease is the same through a batch element, with a
// second release on top.
func batchReadAfterRelease(batch []stream) int {
	n := 0
	for i := range batch {
		comm.PutBuffer(batch[i].payload)
		n += len(batch[i].payload)       // want `use of buffer batch\[i\].payload after it was released`
		comm.PutBuffer(batch[i].payload) // want `use of buffer batch\[i\].payload after it was released`
	}
	return n
}

// releaseAndClear is the correct shape (runtime.releasePayloads): every
// element is released once and cleared, so the batch cannot reach a
// released buffer; other fields stay readable.
func releaseAndClear(batch []stream) int {
	tgts := 0
	for i := range batch {
		comm.PutBuffer(batch[i].payload)
		tgts += batch[i].tgt
		batch[i] = stream{}
	}
	return tgts
}

// sharedPayloadRelease releases one loop-external payload per iteration.
func sharedPayloadRelease(s stream, n int) {
	for i := 0; i < n; i++ {
		comm.PutBuffer(s.payload) // want `released inside a loop but declared outside`
	}
}

// escapeHatch: a reviewed exception stays visible via the pragma.
func escapeHatch(ep comm.Endpoint) int {
	buf := comm.GetBuffer(64)
	_ = comm.SendPooled(ep, 1, buf)
	return cap(buf) //jsweep:pooledbuf-ok
}
