package knowledge

import (
	"fmt"
	"slices"
)

// This file is the persistence surface of the knowledge set: full-fidelity
// change events (replayed one at a time by ApplyEvent — the write-ahead-log
// half of internal/kstore) and the State snapshot form (the compaction
// half). Together they satisfy the invariant the store's recovery tests
// pin down: for any set built through the mutators,
//
//	FromState(s.State())            == s   (content, history, checkpoints)
//	replay(NewSet(), s.History())   == s   (event-for-event)
//	FromState(snap) + replay(tail)  == s   (snapshot + WAL tail)

// ApplyEvent replays one audit event against the set, reproducing both the
// mutation and the history record exactly as the original operation wrote
// them. Events must be applied in order: ev.Seq must be exactly
// LastSeq()+1, so gaps in a recovered log are detected rather than papered
// over. Unlike the mutators, ApplyEvent never re-stamps provenance or
// assigns IDs — the event payload is authoritative, and the set holds the
// payload itself (see Set for the ownership rule).
func (s *Set) ApplyEvent(ev ChangeEvent) error {
	if ev.Seq != s.nextSeq+1 {
		return fmt.Errorf("replay gap: event seq %d after seq %d", ev.Seq, s.nextSeq)
	}
	if err := s.applyEventMutation(ev); err != nil {
		return fmt.Errorf("replaying event seq %d (%s %s %s): %w", ev.Seq, ev.Op, ev.Kind, ev.EntityID, err)
	}
	s.history = append(s.history, ev)
	s.nextSeq = ev.Seq
	s.version = ev.Version
	return nil
}

func (s *Set) applyEventMutation(ev ChangeEvent) error {
	switch ev.Op {
	case OpInsert:
		switch ev.Kind {
		case ExampleEntity:
			if ev.Example == nil {
				return fmt.Errorf("insert event has no example payload")
			}
			if _, exists := s.examples[ev.Example.ID]; exists {
				return fmt.Errorf("example %s already exists", ev.Example.ID)
			}
			s.examples[ev.Example.ID] = ev.Example
			s.exampleIDs = append(s.exampleIDs, ev.Example.ID)
			return nil
		case InstructionEntity:
			if ev.Instruction == nil {
				return fmt.Errorf("insert event has no instruction payload")
			}
			if _, exists := s.instructions[ev.Instruction.ID]; exists {
				return fmt.Errorf("instruction %s already exists", ev.Instruction.ID)
			}
			s.instructions[ev.Instruction.ID] = ev.Instruction
			s.instrIDs = append(s.instrIDs, ev.Instruction.ID)
			return nil
		case IntentEntity:
			if ev.Intent == nil {
				return fmt.Errorf("insert event has no intent payload")
			}
			if _, ok := s.intents[ev.Intent.ID]; !ok {
				s.intentIDs = append(s.intentIDs, ev.Intent.ID)
			}
			s.intents[ev.Intent.ID] = ev.Intent
			return nil
		case DirectiveEntity:
			s.directives = append(s.directives, ev.Directive)
			return nil
		}
	case OpUpdate:
		switch ev.Kind {
		case ExampleEntity:
			if ev.Example == nil {
				return fmt.Errorf("update event has no example payload")
			}
			if _, exists := s.examples[ev.Example.ID]; !exists {
				return fmt.Errorf("example %s does not exist", ev.Example.ID)
			}
			s.examples[ev.Example.ID] = ev.Example
			return nil
		case InstructionEntity:
			if ev.Instruction == nil {
				return fmt.Errorf("update event has no instruction payload")
			}
			if _, exists := s.instructions[ev.Instruction.ID]; !exists {
				return fmt.Errorf("instruction %s does not exist", ev.Instruction.ID)
			}
			s.instructions[ev.Instruction.ID] = ev.Instruction
			return nil
		}
	case OpDelete:
		switch ev.Kind {
		case ExampleEntity:
			if _, exists := s.examples[ev.EntityID]; !exists {
				return fmt.Errorf("example %s does not exist", ev.EntityID)
			}
			delete(s.examples, ev.EntityID)
			s.exampleIDs = removeID(s.exampleIDs, ev.EntityID)
			return nil
		case InstructionEntity:
			if _, exists := s.instructions[ev.EntityID]; !exists {
				return fmt.Errorf("instruction %s does not exist", ev.EntityID)
			}
			delete(s.instructions, ev.EntityID)
			s.instrIDs = removeID(s.instrIDs, ev.EntityID)
			return nil
		}
	case OpCheckpoint:
		// At replay time the set's contents equal the original pre-checkpoint
		// state (events are applied in order), so snapshotting here recreates
		// the checkpoint exactly. s.version is still the pre-event version,
		// matching Checkpoint()'s pre-log stamp.
		s.checkpoints = append(s.checkpoints, Checkpoint{
			ID:      ev.CheckpointID,
			Name:    ev.CheckpointName,
			Version: s.version,
			Content: s.content(),
		})
		// IDs are assigned monotonically, so the event's ID is also the
		// counter state after the original operation.
		s.nextCheckpointID = ev.CheckpointID
		s.pruneCheckpoints()
		return nil
	case OpRevert:
		for i := range s.checkpoints {
			if s.checkpoints[i].ID == ev.CheckpointID {
				s.restore(s.checkpoints[i].Content)
				return nil
			}
		}
		return fmt.Errorf("checkpoint %d does not exist", ev.CheckpointID)
	}
	return fmt.Errorf("unsupported event op %q kind %q", ev.Op, ev.Kind)
}

// Replay applies a sequence of events in order, failing fast on the first
// inconsistent event.
func (s *Set) Replay(events []ChangeEvent) error {
	for _, ev := range events {
		if err := s.ApplyEvent(ev); err != nil {
			return err
		}
	}
	return nil
}

// State is the full serializable form of a Set: contents, version,
// sequence counter, audit history and checkpoints. It is what kstore's
// compaction writes as snapshot-<version>.json. All slices are
// insertion-ordered, so FromState(State()) reproduces retrieval-index
// iteration order (and therefore generation output) exactly.
type State struct {
	Version          int `json:"version"`
	NextSeq          int `json:"next_seq"`
	NextCheckpointID int `json:"next_checkpoint_id,omitempty"`
	Content
	History     []ChangeEvent `json:"history,omitempty"`
	Checkpoints []Checkpoint  `json:"checkpoints,omitempty"`
}

// State captures the set as a State value that shares the set's entities,
// events and checkpoints.
func (s *Set) State() *State {
	return &State{
		Version:          s.version,
		NextSeq:          s.nextSeq,
		NextCheckpointID: s.nextCheckpointID,
		Content:          s.content(),
		History:          slices.Clip(s.history),
		Checkpoints:      slices.Clip(s.checkpoints),
	}
}

// FromState reconstructs a Set from its serialized form. The set takes
// over st's entities, events and checkpoints, so st must not be written
// afterwards.
func FromState(st *State) *Set {
	s := &Set{
		version:          st.Version,
		nextSeq:          st.NextSeq,
		nextCheckpointID: st.NextCheckpointID,
		history:          slices.Clip(st.History),
		checkpoints:      slices.Clip(st.Checkpoints),
	}
	s.restore(st.Content)
	return s
}
