package experiments

import (
	"encoding/json"
	"fmt"

	"hclocksync/internal/checkpoint"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
)

// runPhases runs one mpirun as a list of phases, each a rank program, and
// is the only phased-execution mechanism of the experiment harnesses.
//
// Without cut, every rank is spawned once and runs the phases back to back:
// a plain mpi.Run, the schedule the paper's figures measure. With cut, each
// phase is its own Session.RunPhase, so the job rests at a quiescent
// virtual-time cut between phases (every rank of phase k+1 respawns at the
// cut's global time, which is why the two schedules pin separate golden
// hashes). With cut and a ckpt, the session is saved after every non-final
// phase — cut k means k phases are done — together with the JSON encoding
// of *state, and a run that finds ckpt.Latest resumes after that cut.
//
// *state must hold everything a later phase, or the caller, reads from an
// earlier phase; on resume runPhases replaces it with the saved value,
// decoded into a zero S. A rank may only read state it wrote itself: back
// to back, one rank can enter phase k+1 while another is still in phase k.
func runPhases[S any](cfg mpi.Config, cut bool, ckpt harness.TaskCheckpoint, state *S, phases ...func(*mpi.Proc)) error {
	if !cut {
		return mpi.Run(cfg, func(p *mpi.Proc) {
			for _, phase := range phases {
				phase(p)
			}
		})
	}
	var s *mpi.Session
	done := 0
	if ckpt != nil {
		if c, snap, ok := ckpt.Latest(); ok {
			resumed, err := resumePhases(cfg, c, snap, len(phases), state)
			if err != nil {
				return fmt.Errorf("resuming from cut %d: %w", c, err)
			}
			s, done = resumed, c
		}
	}
	if s == nil {
		fresh, err := mpi.NewSession(cfg)
		if err != nil {
			return err
		}
		s = fresh
	}
	for k := done; k < len(phases); k++ {
		if err := s.RunPhase(phases[k]); err != nil {
			return err
		}
		if ckpt == nil || k+1 == len(phases) {
			continue
		}
		st, err := s.Snapshot()
		if err != nil {
			return fmt.Errorf("snapshot at cut %d: %w", k+1, err)
		}
		app, err := json.Marshal(state)
		if err != nil {
			return fmt.Errorf("encoding cut %d state: %w", k+1, err)
		}
		ckpt.Save(k+1, checkpoint.EncodeSession(&checkpoint.Session{
			Cut: k + 1, State: st, App: [][]byte{app},
		}))
	}
	return nil
}

// resumePhases rebuilds the session and *state saved at cut, checking the
// cut against the phase count and the payload's shape first.
func resumePhases[S any](cfg mpi.Config, cut int, snap []byte, nphases int, state *S) (*mpi.Session, error) {
	if cut < 1 || cut >= nphases {
		return nil, fmt.Errorf("cut out of range [1,%d)", nphases)
	}
	decoded, err := checkpoint.DecodeSession(snap)
	if err != nil {
		return nil, err
	}
	if decoded.Cut != cut {
		return nil, fmt.Errorf("snapshot was taken at cut %d", decoded.Cut)
	}
	if len(decoded.App) != 1 {
		return nil, fmt.Errorf("payload has %d blobs, want 1", len(decoded.App))
	}
	var saved S
	if err := json.Unmarshal(decoded.App[0], &saved); err != nil {
		return nil, fmt.Errorf("decoding state: %w", err)
	}
	s, err := mpi.ResumeSession(cfg, decoded.State)
	if err != nil {
		return nil, err
	}
	*state = saved
	return s, nil
}
