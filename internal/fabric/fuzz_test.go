package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"trackfm/internal/remote"
)

// halfDuplex is the server's end of an in-memory connection made of two
// one-way pipes, so that — unlike net.Pipe — the client can finish writing
// and still read what the server answers until the server hangs up.
type halfDuplex struct {
	net.Conn // nil: handle uses Read, Write and Close only
	r        *io.PipeReader
	w        *io.PipeWriter
}

func (c *halfDuplex) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *halfDuplex) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *halfDuplex) Close() error                { c.r.Close(); return c.w.Close() }

// checkReplyStream walks in, a client's whole byte stream, the way
// Server.handle reads it, and checks out, everything the server answers
// until it hangs up, against it: after the hello's reply, one reply per
// request the server received in full, in request order — each of the
// shape and length its request calls for, fetch payloads verifying against
// their trailers — and nothing else. A reply written but never flushed
// would be missing here. out is read as it comes and never held: 21 bytes
// of request can ask for MaxPayload (64 KiB) of reply.
func checkReplyStream(in []byte, out io.Reader) error {
	r := bufio.NewReader(out)
	rest := func() error {
		if n, _ := io.Copy(io.Discard, r); n != 0 {
			return fmt.Errorf("%d bytes answered beyond the last request", n)
		}
		return nil
	}
	if len(in) < helloLen || in[0] != opHello || binary.BigEndian.Uint64(in[1:9]) != helloMagic {
		return rest() // no leading hello: no answer at all
	}
	in = in[helloLen:]
	var reply [helloReplyLen]byte
	take := func(n int, what string) ([]byte, error) {
		if _, err := io.ReadFull(r, reply[:n]); err != nil {
			return nil, fmt.Errorf("reply stream ends in %s with %d request bytes still to answer: a served reply was lost (%v)", what, len(in), err)
		}
		return reply[:n], nil
	}
	oneByte := func(what string, allowed ...byte) (byte, error) {
		b, err := take(1, what)
		if err == nil && !slices.Contains(allowed, b[0]) {
			err = fmt.Errorf("%s is %#x", what, b[0])
		}
		return reply[0], err
	}
	if h, err := take(helloReplyLen, "the hello reply"); err != nil || h[0] != ackHello || h[1] != protoVersion {
		return fmt.Errorf("hello answered % x (%v)", h, err)
	}
requests:
	for len(in) >= hdrLen {
		op, length := in[0], binary.BigEndian.Uint32(in[9:13])
		in = in[hdrLen:]
		if length > MaxPayload {
			if _, err := oneByte("the answer to an oversize request", ackErr); err != nil {
				return err
			}
			if op == opPush {
				break
			}
			continue
		}
		switch op {
		case opFetch:
			flag, err := oneByte("a fetch reply's flag", flagAbsent, flagFound, ackCorrupt)
			if err != nil {
				return err
			}
			if flag == ackCorrupt {
				continue
			}
			sum := crc32.New(crc32.MakeTable(crc32.Castagnoli))
			if _, err := io.CopyN(sum, r, int64(length)); err != nil {
				return fmt.Errorf("reply stream ends inside a %d-byte fetch payload: %v", length, err)
			}
			if crc, err := take(crcLen, "a fetch reply's trailer"); err != nil {
				return err
			} else if binary.BigEndian.Uint32(crc) != sum.Sum32() {
				return fmt.Errorf("a %d-byte fetch reply fails its own trailer: replies out of order?", length)
			}
		case opPush:
			if len(in) < int(length)+crcLen {
				break requests // the payload never arrived in full: nothing to answer
			}
			in = in[int(length)+crcLen:]
			if _, err := oneByte("a push ack", ackOK, ackCorrupt); err != nil {
				return err
			}
		case opDelete:
			if _, err := oneByte("a delete ack", ackOK); err != nil {
				return err
			}
		default:
			break requests // unknown opcode: the server hangs up
		}
	}
	return rest()
}

// FuzzFrame throws an arbitrary byte stream at Server.handle, the one frame
// decoder: frames that are valid, truncated, corrupt in the trailer, behind
// a hello or not, one at a time or written ahead as a pipelining client
// writes them. Whatever arrives, the server must not panic, must return
// once the client has hung up its sending side, must not allocate for an
// oversize length field (a 4 GiB buffer per exec would not survive the run,
// and nothing that was never on the wire can be stored), must store only
// payloads whose trailer verified, must store nothing from a stream that
// does not open with a valid hello — and must answer every request it
// received in full, in request order, before it closes the connection
// (checkReplyStream).
func FuzzFrame(f *testing.F) {
	hello := helloFrame(protoVersion)
	payload := []byte{1, 2, 3, 4}
	goodPush := pushFrame(42, 0, payload)
	fetch := reqFrame(opFetch, 42, uint32(len(payload)), 12345)
	badMagic := helloFrame(protoVersion)
	badMagic[8] ^= 0xFF
	// What a pipelining client writes in one go: fetches of different
	// lengths, so replies delivered out of order cannot parse.
	ahead := slices.Concat(goodPush, fetch, reqFrame(opFetch, 42, 3, 0), reqFrame(opFetch, 7, 600, 0), reqFrame(opFetch, 42, 4, 0))

	for _, frames := range [][]byte{
		goodPush,
		pushFrame(42, uint64(time.Hour.Nanoseconds()), payload), // the same push carrying a deadline
		corruptTrailer(goodPush),                                // must be rejected
		goodPush[:len(goodPush)-2],                              // truncated trailer
		fetch,                                                   // of the pushed key, with a deadline
		fetch[:17],                                              // truncated mid-deadline
		reqFrame(opDelete, 0, 0, 0),
		reqFrame(opPush, 7, 0xFFFFFFFF, ^uint64(0)),            // oversize length beside a huge deadline
		reqFrame(0xFF, 1, 2, 3),                                // unknown opcode
		{opPush, 0, 0},                                         // truncated header
		slices.Concat(fetch, reqFrame(opDelete, 42, 0, 0)),     // two frames back to back
		slices.Concat(goodPush, hello),                         // a hello mid-stream
		slices.Concat(helloFrame(1), corruptTrailer(goodPush)), // one offering an old version
	} {
		f.Add(slices.Concat(hello, frames)) // behind a hello
		f.Add(frames)                       // and bare
	}
	f.Add(slices.Concat(badMagic, goodPush))
	f.Add(hello[:7])
	// Requests written ahead, then the things that may sit in the middle of
	// such a burst: the replies served before them must still go out.
	f.Add(slices.Concat(hello, ahead))
	f.Add(slices.Concat(hello, ahead, reqFrame(opFetch, 1, 0xFFFFFFFF, 0), ahead)) // an oversize fetch: refused, the stream goes on
	f.Add(slices.Concat(hello, ahead, reqFrame(opPush, 1, 0xFFFFFFFF, 0), ahead))  // an oversize push: refused, then the hang-up
	f.Add(slices.Concat(hello, ahead, reqFrame(0xFF, 1, 2, 3), ahead))             // an unknown opcode
	f.Add(slices.Concat(hello, ahead, fetch[:9]))                                  // a truncated header
	f.Add(slices.Concat(hello, ahead, goodPush[:hdrLen+2]))                        // a push whose payload never comes
	f.Add(slices.Concat(hello, ahead, corruptTrailer(goodPush), ahead))            // a push rejected in the middle
	// What an exchange that carries pushes writes in one go: pushes of
	// different keys and lengths and the fetch behind them, or pushes alone;
	// one of them rejected; the last one cut short.
	other := pushFrame(7, 0, bytes.Repeat([]byte{0xA7}, 600))
	carry := slices.Concat(goodPush, other, pushFrame(9, 0, nil), reqFrame(opFetch, 7, 600, 0))
	f.Add(slices.Concat(hello, carry))
	f.Add(slices.Concat(hello, carry, carry))
	f.Add(slices.Concat(hello, goodPush, other, goodPush))
	f.Add(slices.Concat(hello, goodPush, corruptTrailer(other), goodPush, fetch))
	f.Add(slices.Concat(hello, other, goodPush, other[:len(other)-crcLen-100]))
	// At the limit: the largest push and a fetch of it, each a whole
	// wire buffer's worth; then one request per opcode a byte over it.
	big := bytes.Repeat([]byte{0x5B}, MaxPayload)
	f.Add(slices.Concat(hello, pushFrame(42, 0, big), reqFrame(opFetch, 42, MaxPayload, 0)))
	for _, op := range []byte{opFetch, opPush, opDelete, opHello} {
		f.Add(slices.Concat(hello, fetch, reqFrame(op, 42, MaxPayload+1, 0), fetch))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		store := remote.NewStore()
		s := NewServer(store)
		fromClient, clientW := io.Pipe()
		clientR, toClient := io.Pipe()
		done := make(chan struct{})
		go func() {
			s.handle(&halfDuplex{r: fromClient, w: toClient})
			close(done)
		}()
		// The client writes its whole stream and hangs up its sending side
		// only, then reads until the server hangs up; feeding the input
		// from a goroutine keeps the server's writes from blocking on the
		// unbuffered pipe.
		go func() {
			clientW.Write(data)
			clientW.Close()
		}()
		verdict := make(chan error, 1)
		go func() { verdict <- checkReplyStream(data, clientR) }()
		select {
		case err := <-verdict:
			clientR.Close() // a checker that gave up early must not leave the server blocked in a write
			<-done
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("server.handle did not hang up after the client finished sending")
		}
		if !bytes.HasPrefix(data, hello[:9]) && store.Len() != 0 {
			t.Fatalf("a stream without a leading hello stored %d blobs", store.Len())
		}
		if store.Bytes() > uint64(len(data)) {
			t.Fatalf("store holds %d bytes from a %d-byte stream", store.Bytes(), len(data))
		}
		// Whatever the fuzzer managed to store must verify: the store
		// recomputes every blob's checksum at Put, so an accepted frame
		// can never read back as ErrChecksum. (ErrSizeMismatch is fine —
		// the fuzzer may legitimately store a shorter blob under this key.)
		buf := make([]byte, len(payload))
		if _, err := store.Get(42, buf); errors.Is(err, remote.ErrChecksum) {
			t.Fatalf("stored blob failed integrity on read-back: %v", err)
		}
	})
}
