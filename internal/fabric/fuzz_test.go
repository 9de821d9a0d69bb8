package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"hclocksync/internal/harness"
)

// FuzzFrameDecode feeds arbitrary bytes to both ends of the line-JSON
// protocol: as job requests into ServeWorker (with a stub executor that
// saves the request's resume snapshot as a cut and echoes it back), and as
// worker stdout into the coordinator's frame reader. Neither may panic;
// every line the worker emits must parse back as a frame of a known type;
// and the coordinator's reader must deliver exactly those frames.
func FuzzFrameDecode(f *testing.F) {
	req, err := json.Marshal(JobRequest{
		Type: "job", ID: 7, Entry: "fig3", Suite: "syncaccuracy", Task: "hca3/run0",
		Scale: "tiny", Seed: 3, Cut: true, Key: "k", Phased: true,
		ResumeCut: 1, ResumeSnap: []byte{0xde, 0xad, 0xbe, 0xef},
	})
	if err != nil {
		f.Fatal(err)
	}
	frame, err := json.Marshal(Frame{Type: FrameResult, ID: 7, Key: "k", Result: json.RawMessage(`{"a":[1,2]}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(req)
	f.Add(append(append(append([]byte(nil), req...), '\n'), req...))
	f.Add(req[:len(req)/2])
	f.Add(frame)
	f.Add([]byte(`{"type":"hello","pid":42}` + "\n" + `{"type":"cut","id":1,"cut":2,"snap":"AAEC"}`))
	f.Add([]byte(`{"type":"job","id":1,"resume_snap":"not base64"}`))
	f.Add([]byte(`{"type":"job","id":-1,"key":"\u0000"}` + "\n\n  \n"))
	f.Add([]byte("\x00\xff\n{}\n[]\nnull\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Worker side: requests in, frames out.
		var out bytes.Buffer
		exec := func(req JobRequest, ledger harness.Ledger) (string, json.RawMessage, error) {
			if tc := ledger.Task(req.Suite, req.Task); tc != nil {
				if cut, snap, ok := tc.Latest(); ok {
					tc.Save(cut+1, snap)
				}
			}
			result, err := json.Marshal(req)
			return req.Key, result, err
		}
		_ = ServeWorker(bytes.NewReader(data), &out, WorkerOptions{Heartbeat: -1}, exec)
		known := map[string]bool{FrameHello: true, FrameHeartbeat: true, FrameCut: true, FrameResult: true, FrameError: true}
		lines := 0
		sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
		sc.Buffer(make([]byte, 0, 64<<10), maxLine)
		for sc.Scan() {
			lines++
			var fr Frame
			if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
				t.Fatalf("worker emitted an unparsable frame %q: %v", sc.Bytes(), err)
			}
			if !known[fr.Type] {
				t.Fatalf("worker emitted a frame of unknown type %q", fr.Type)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if got := len(decodeAll(out.Bytes())); got != lines {
			t.Fatalf("coordinator decoded %d of the worker's %d frames", got, lines)
		}

		// Coordinator side: arbitrary worker stdout.
		for _, fr := range decodeAll(data) {
			if fr.Type == "" {
				t.Fatal("coordinator delivered a frame without a type")
			}
		}
	})
}

// decodeAll runs the coordinator's frame reader over raw worker output.
func decodeAll(raw []byte) []Frame {
	c := &procConn{ch: make(chan Frame), done: make(chan struct{})}
	go func() {
		defer close(c.ch)
		c.decode(bytes.NewReader(raw))
	}()
	var frames []Frame
	for fr := range c.ch {
		frames = append(frames, fr)
	}
	return frames
}
