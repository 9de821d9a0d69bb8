package checkpoint

// Session payload codec. Field order is fixed and every map-backed
// collection arrives pre-sorted from mpi.Session.Snapshot, so one session
// state always encodes to one byte sequence — the property the golden
// SHA-256 hashes in internal/experiments pin down.

import (
	"crypto/sha256"
	"encoding/hex"

	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
)

// Session is one checkpointed MPI job: the full mid-run state captured at a
// quiescent cut, plus the application's own cross-phase payload (for the
// experiment harnesses: one blob, the JSON encoding of the state their
// phases carry — see internal/experiments' runPhases).
//
//synclint:snapshot
type Session struct {
	// Cut numbers the quiescent cut this snapshot was taken at (1 after the
	// first phase, and so on) so a resumer knows which phases are done.
	Cut   int
	State mpi.SessionState
	App   [][]byte
}

// EncodeSession serializes s into a sealed container.
func EncodeSession(s *Session) []byte {
	var e enc
	e.i64(int64(s.Cut))
	encodeEnv(&e, s.State)
	encodeClocks(&e, s.State.Clocks)
	encodeWorld(&e, s.State.World)
	e.count(len(s.App))
	for _, b := range s.App {
		e.bytes(b)
	}
	return seal(KindSession, e.b)
}

// DecodeSession parses a sealed container produced by EncodeSession. All
// failure modes — wrong magic, version, kind, CRC, truncation, structural
// nonsense — come back as typed errors; no input makes it panic.
func DecodeSession(b []byte) (*Session, error) {
	kind, payload, err := open(b)
	if err != nil {
		return nil, err
	}
	if kind != KindSession {
		return nil, &CorruptError{Field: "kind", Msg: "not a session checkpoint"}
	}
	d := &dec{b: payload}
	var s Session
	s.Cut = int(d.i64())
	decodeEnv(d, &s.State)
	decodeClocks(d, &s.State.Clocks)
	decodeWorld(d, &s.State.World)
	n := d.count(8)
	for i := 0; i < n && d.err == nil; i++ {
		s.App = append(s.App, d.bytes())
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Digest returns the SHA-256 hex of an encoded checkpoint — the identity
// the golden tests compare.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func encodeEnv(e *enc, st mpi.SessionState) {
	e.f64(st.Env.Now)
	e.i64(st.Env.Seq)
	e.i64(st.Env.Seed)
	e.u64(st.Env.RngDraws)
	e.i64(int64(st.Env.Spawned))
}

func decodeEnv(d *dec, st *mpi.SessionState) {
	st.Env.Now = d.f64()
	st.Env.Seq = d.i64()
	st.Env.Seed = d.i64()
	st.Env.RngDraws = d.u64()
	st.Env.Spawned = int(d.i64())
}

func encodeClockState(e *enc, cs cluster.ClockState) {
	e.i64(int64(cs.Segments))
	e.count(len(cs.Dists))
	for _, dd := range cs.Dists {
		e.f64(dd.At)
		e.f64(dd.Step)
		e.f64(dd.DPPM)
	}
}

func decodeClockState(d *dec) cluster.ClockState {
	var cs cluster.ClockState
	cs.Segments = int(d.i64())
	n := d.count(24)
	for i := 0; i < n && d.err == nil; i++ {
		cs.Dists = append(cs.Dists, cluster.Disturbance{At: d.f64(), Step: d.f64(), DPPM: d.f64()})
	}
	return cs
}

func encodeClocks(e *enc, st cluster.MachineClockState) {
	e.count(len(st.Mono))
	for _, cs := range st.Mono {
		encodeClockState(e, cs)
	}
	e.count(len(st.GTOD))
	for _, cs := range st.GTOD {
		encodeClockState(e, cs)
	}
}

func decodeClocks(d *dec, st *cluster.MachineClockState) {
	n := d.count(16)
	for i := 0; i < n && d.err == nil; i++ {
		st.Mono = append(st.Mono, decodeClockState(d))
	}
	n = d.count(16)
	for i := 0; i < n && d.err == nil; i++ {
		st.GTOD = append(st.GTOD, decodeClockState(d))
	}
}

func encodeWorld(e *enc, w mpi.WorldState) {
	e.i64(int64(w.NextComm))
	e.count(len(w.Comms))
	for _, c := range w.Comms {
		e.i64(int64(c.Parent))
		e.i64(int64(c.Seq))
		e.i64(int64(c.Color))
		e.i64(int64(c.ID))
	}
	e.count(len(w.CollSeq))
	for _, s := range w.CollSeq {
		e.i64(int64(s))
	}
	e.count(len(w.Clamps))
	for _, c := range w.Clamps {
		e.i64(int64(c.Src))
		e.i64(int64(c.Dst))
		e.f64(c.Arrival)
	}
	e.count(len(w.Mail))
	for _, mb := range w.Mail {
		e.i64(int64(mb.Comm))
		e.i64(int64(mb.Dst))
		e.i64(int64(mb.Src))
		e.i64(int64(mb.Tag))
		e.count(len(mb.Msgs))
		for _, m := range mb.Msgs {
			e.f64(m.Arrival)
			e.u8(m.Kind)
			e.bytes(m.Data)
			e.f64s(m.FV)
			e.f64(m.V)
			e.i64(int64(m.Sender))
		}
	}
	e.u64(w.Faults.MsgDraws)
	e.u64(w.Faults.ByzDraws)
	e.count(len(w.FaultyClocks))
	for _, fc := range w.FaultyClocks {
		e.i64(int64(fc.Rank))
		encodeClockState(e, fc.Clock)
	}
}

func decodeWorld(d *dec, w *mpi.WorldState) {
	w.NextComm = int(d.i64())
	n := d.count(32)
	for i := 0; i < n && d.err == nil; i++ {
		w.Comms = append(w.Comms, mpi.CommState{
			Parent: int(d.i64()), Seq: int(d.i64()), Color: int(d.i64()), ID: int(d.i64()),
		})
	}
	n = d.count(8)
	for i := 0; i < n && d.err == nil; i++ {
		w.CollSeq = append(w.CollSeq, int(d.i64()))
	}
	n = d.count(24)
	for i := 0; i < n && d.err == nil; i++ {
		w.Clamps = append(w.Clamps, mpi.ClampState{
			Src: int(d.i64()), Dst: int(d.i64()), Arrival: d.f64(),
		})
	}
	n = d.count(40)
	for i := 0; i < n && d.err == nil; i++ {
		mb := mpi.MailboxState{
			Comm: int(d.i64()), Dst: int(d.i64()), Src: int(d.i64()), Tag: int(d.i64()),
		}
		k := d.count(42) // arrival + kind + 2 length prefixes + v + sender
		for j := 0; j < k && d.err == nil; j++ {
			mb.Msgs = append(mb.Msgs, mpi.MessageState{
				Arrival: d.f64(),
				Kind:    d.u8(),
				Data:    d.bytes(),
				FV:      d.f64s(),
				V:       d.f64(),
				Sender:  int(d.i64()),
			})
		}
		w.Mail = append(w.Mail, mb)
	}
	w.Faults.MsgDraws = d.u64()
	w.Faults.ByzDraws = d.u64()
	n = d.count(24)
	for i := 0; i < n && d.err == nil; i++ {
		w.FaultyClocks = append(w.FaultyClocks, mpi.FaultyClockState{
			Rank: int(d.i64()), Clock: decodeClockState(d),
		})
	}
}
