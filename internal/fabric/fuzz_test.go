package fabric

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"trackfm/internal/remote"
)

// FuzzFrame throws an arbitrary byte stream at Server.handle, the one frame
// decoder: frames that are valid, truncated, corrupt in the trailer, behind
// a hello or not. Whatever arrives, the server must not panic, must return
// once the client hangs up, must not allocate for an oversize length field
// (a 4 GiB buffer per exec would not survive the run, and nothing that was
// never on the wire can be stored), must store only payloads whose trailer
// verified, and must store nothing from a stream that does not open with a
// valid hello.
func FuzzFrame(f *testing.F) {
	hello := helloFrame(protoVersion)
	payload := []byte{1, 2, 3, 4}
	goodPush := pushFrame(42, 0, payload)
	fetch := reqFrame(opFetch, 42, uint32(len(payload)), 12345)
	badMagic := helloFrame(protoVersion)
	badMagic[8] ^= 0xFF

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

	f.Fuzz(func(t *testing.T, data []byte) {
		store := remote.NewStore()
		s := NewServer(store)
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			s.handle(server)
			close(done)
		}()
		// Drain whatever the server answers so its writes never block
		// on the unbuffered pipe, and feed the input from a goroutine:
		// if the server tears the connection down mid-input (bad
		// opcode, oversize push) the blocked write errors out instead
		// of stalling this exec.
		go io.Copy(io.Discard, client)
		client.SetDeadline(time.Now().Add(2 * time.Second))
		go func() {
			client.Write(data)
			client.Close()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("server.handle did not return after client close")
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
