// Package knowledge implements GenEdit's company-specific knowledge set
// (§2.1, §3.2, §4): a materialized view of decomposed SQL examples, natural-
// language instructions and schema elements grouped by user intents, with
// provenance, versioning, checkpoints and an auditable edit history.
package knowledge

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"genedit/internal/schema"
)

// Provenance records where a knowledge item came from, supporting the
// library's audit and reversion views (§4.2.2).
type Provenance struct {
	// Source names the origin: a query-log ID, document title, or "feedback".
	Source string `json:"source,omitempty"`
	// Editor is who created or last changed the item (an SME name or
	// "preprocessing").
	Editor string `json:"editor,omitempty"`
	// FeedbackID links items created through the feedback solver.
	FeedbackID string `json:"feedback_id,omitempty"`
	// Version is the knowledge-set version at which the item last changed.
	Version int `json:"version,omitempty"`
}

// Example is a decomposed SQL sub-statement with its natural-language
// description (§3.2.1). Unlike traditional full-query few-shot examples,
// these are clause-granular fragments referenced by CoT plan steps.
type Example struct {
	ID        string   `json:"id"`
	IntentIDs []string `json:"intent_ids,omitempty"`
	// NL describes the sub-statement ("Compute RPV as revenue over views").
	NL string `json:"nl,omitempty"`
	// Pseudo is the pseudo-SQL display form ("... FROM SPORTS_FINANCIALS ...").
	Pseudo string `json:"pseudo,omitempty"`
	// SQL is the raw sub-statement content used during composition.
	SQL string `json:"sql,omitempty"`
	// Clause labels the fragment kind (projection, where, ...).
	Clause string `json:"clause,omitempty"`
	// SourceSQL is the full query the fragment was decomposed from.
	SourceSQL string `json:"source_sql,omitempty"`
	// SourceQuestion is the natural-language question of the source query.
	SourceQuestion string `json:"source_question,omitempty"`
	// Terms lists domain terms this example exercises (e.g. "QoQFP", "RPV").
	Terms      []string   `json:"terms,omitempty"`
	Provenance Provenance `json:"provenance,omitempty"`
}

// Text renders the example for embedding and ranking.
func (e *Example) Text() string { return e.NL + " " + e.Pseudo }

// Instruction is a natural-language generation guideline, optionally with an
// expected SQL sub-expression (§3.2.2).
type Instruction struct {
	ID        string   `json:"id"`
	IntentIDs []string `json:"intent_ids,omitempty"`
	Text      string   `json:"text,omitempty"`
	// SQLHint is the expected SQL sub-expression, when relevant.
	SQLHint string `json:"sql_hint,omitempty"`
	// Terms lists domain terms this instruction defines.
	Terms      []string   `json:"terms,omitempty"`
	Provenance Provenance `json:"provenance,omitempty"`
}

// RetrievalText renders the instruction for embedding and ranking: the
// guideline text concatenated with its expected-SQL hint, so retrieval
// matches either phrasing or SQL shape.
func (i *Instruction) RetrievalText() string { return i.Text + " " + i.SQLHint }

// Intent is a mined user intent grouping examples, instructions and schema
// elements (§2.1).
type Intent struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Elements are schema columns considered relevant to the intent.
	Elements []schema.Element `json:"elements,omitempty"`
}

// ChangeOp enumerates audit-history operations.
type ChangeOp string

// Change operations.
const (
	OpInsert     ChangeOp = "insert"
	OpUpdate     ChangeOp = "update"
	OpDelete     ChangeOp = "delete"
	OpRevert     ChangeOp = "revert"
	OpCheckpoint ChangeOp = "checkpoint"
)

// EntityKind enumerates the knowledge entities edits can touch.
type EntityKind string

// Entity kinds.
const (
	ExampleEntity     EntityKind = "example"
	InstructionEntity EntityKind = "instruction"
	IntentEntity      EntityKind = "intent"
	DirectiveEntity   EntityKind = "retrieval_directive"
)

// ChangeEvent is one audit-history record. Events are full-fidelity: besides
// the audit metadata they carry the entity payload the operation wrote, so a
// log of events is a complete serialization of the set's evolution — the
// record format of the kstore write-ahead log. ApplyEvent replays one.
type ChangeEvent struct {
	Seq        int        `json:"seq"`
	Version    int        `json:"version"`
	Op         ChangeOp   `json:"op"`
	Kind       EntityKind `json:"kind"`
	EntityID   string     `json:"entity_id,omitempty"`
	Summary    string     `json:"summary,omitempty"`
	Editor     string     `json:"editor,omitempty"`
	FeedbackID string     `json:"feedback_id,omitempty"`

	// Payloads: exactly one is set for mutating ops (the entity content as
	// written, provenance included); all nil/zero for deletes, whose
	// EntityID suffices. A payload is the very entity the set holds: by the
	// ownership rule (see Set) it is never written after it is logged.
	Example     *Example     `json:"example,omitempty"`
	Instruction *Instruction `json:"instruction,omitempty"`
	Intent      *Intent      `json:"intent,omitempty"`
	Directive   string       `json:"directive,omitempty"`
	// CheckpointID/CheckpointName describe checkpoint and revert ops.
	CheckpointID   int    `json:"checkpoint_id,omitempty"`
	CheckpointName string `json:"checkpoint_name,omitempty"`
}

// Content is the set's content in insertion order: what a checkpoint holds
// and the content half of a serialized State. Its entities are shared with
// the set, never copied (see Set).
type Content struct {
	Examples     []*Example     `json:"examples,omitempty"`
	Instructions []*Instruction `json:"instructions,omitempty"`
	Intents      []*Intent      `json:"intents,omitempty"`
	Directives   []string       `json:"directives,omitempty"`
}

// Checkpoint is a named, restorable snapshot of the set's content. It is
// also the checkpoint record of a serialized State: checkpoints must
// survive restarts for revert to keep working.
type Checkpoint struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Version int    `json:"version"`
	Content
}

// Set is the knowledge set: the paper's materialized view.
//
// Ownership: an *Example, *Instruction or *Intent is never written after
// the set logs it, and neither is a logged ChangeEvent or a Checkpoint. An
// update replaces the entity's pointer; it does not write through it. The
// set, its event payloads, its checkpoints, its clones and every result of
// an accessor therefore share entities, and no path copies one. Callers
// keep the rule too: a pointer handed to a mutator belongs to the set from
// then on, and an entity read from the set is copied before it is changed
// and handed to UpdateExample or UpdateInstruction.
//
// Concurrency contract: a Set is NOT internally synchronized. A Set that is
// reachable from a live pipeline.Engine must be treated as read-only — the
// engine's retrieval indices are built from it once, and concurrent
// Generate calls read it without locks. All mutation flows (staging,
// feedback merges, reverts) therefore work on a CloneFull and re-serve the
// result via Engine.WithKnowledge, never mutating a served set in place.
// Results of the accessors stay valid across later mutation of the set or
// its clones: the slices they return are fresh or capped at their length,
// so a later append reallocates instead of writing into them.
type Set struct {
	examples     map[string]*Example
	instructions map[string]*Instruction
	intents      map[string]*Intent
	exampleIDs   []string
	instrIDs     []string
	intentIDs    []string
	// directives are extra natural-language instructions attached to the
	// retrieval and re-ranking operators (§1, "Recommending Edits").
	directives []string

	version     int
	history     []ChangeEvent
	checkpoints []Checkpoint
	nextSeq     int
	// nextCheckpointID is a monotonic counter: checkpoint IDs must stay
	// unique even after MaxCheckpoints pruning shortens the list (deriving
	// IDs from the list length would recycle them and make Revert match
	// the wrong snapshot).
	nextCheckpointID int
}

// NewSet returns an empty knowledge set.
func NewSet() *Set {
	return &Set{
		examples:     make(map[string]*Example),
		instructions: make(map[string]*Instruction),
		intents:      make(map[string]*Intent),
	}
}

// Version reports the current version; every mutating operation bumps it.
func (s *Set) Version() int { return s.version }

// --- intents ---

// AddIntent inserts or replaces an intent definition.
func (s *Set) AddIntent(in *Intent) {
	if _, ok := s.intents[in.ID]; !ok {
		s.intentIDs = append(s.intentIDs, in.ID)
	}
	s.intents[in.ID] = in
	s.log(ChangeEvent{
		Op: OpInsert, Kind: IntentEntity, EntityID: in.ID,
		Summary: "intent " + in.Name, Editor: "preprocessing", Intent: in,
	})
}

// Intent returns the intent by ID, or nil.
func (s *Set) Intent(id string) *Intent { return s.intents[id] }

// Intents returns all intents in insertion order.
func (s *Set) Intents() []*Intent { return inOrder(s.intentIDs, s.intents) }

// --- examples ---

// InsertExample adds a new example.
func (s *Set) InsertExample(e *Example, editor, feedbackID string) error {
	if e.ID == "" {
		e.ID = fmt.Sprintf("ex-%03d", len(s.exampleIDs)+1)
	}
	if _, exists := s.examples[e.ID]; exists {
		return fmt.Errorf("example %s already exists", e.ID)
	}
	s.examples[e.ID] = e
	s.exampleIDs = append(s.exampleIDs, e.ID)
	e.Provenance.Editor = editor
	e.Provenance.FeedbackID = feedbackID
	e.Provenance.Version = s.version + 1
	s.log(ChangeEvent{
		Op: OpInsert, Kind: ExampleEntity, EntityID: e.ID,
		Summary: summarize(e.NL), Editor: editor, FeedbackID: feedbackID,
		Example: e,
	})
	return nil
}

// UpdateExample replaces an existing example's content.
func (s *Set) UpdateExample(e *Example, editor, feedbackID string) error {
	if _, exists := s.examples[e.ID]; !exists {
		return fmt.Errorf("example %s does not exist", e.ID)
	}
	e.Provenance.Editor = editor
	e.Provenance.FeedbackID = feedbackID
	e.Provenance.Version = s.version + 1
	s.examples[e.ID] = e
	s.log(ChangeEvent{
		Op: OpUpdate, Kind: ExampleEntity, EntityID: e.ID,
		Summary: summarize(e.NL), Editor: editor, FeedbackID: feedbackID,
		Example: e,
	})
	return nil
}

// DeleteExample removes an example.
func (s *Set) DeleteExample(id, editor, feedbackID string) error {
	if _, exists := s.examples[id]; !exists {
		return fmt.Errorf("example %s does not exist", id)
	}
	delete(s.examples, id)
	s.exampleIDs = removeID(s.exampleIDs, id)
	s.log(ChangeEvent{
		Op: OpDelete, Kind: ExampleEntity, EntityID: id,
		Editor: editor, FeedbackID: feedbackID,
	})
	return nil
}

// Example returns the example by ID, or nil.
func (s *Set) Example(id string) *Example { return s.examples[id] }

// Examples returns all examples in insertion order.
func (s *Set) Examples() []*Example { return inOrder(s.exampleIDs, s.examples) }

// ExamplesByIntent returns examples associated with the intent.
func (s *Set) ExamplesByIntent(intentID string) []*Example {
	var out []*Example
	for _, id := range s.exampleIDs {
		e := s.examples[id]
		for _, iid := range e.IntentIDs {
			if iid == intentID {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// --- instructions ---

// InsertInstruction adds a new instruction.
func (s *Set) InsertInstruction(in *Instruction, editor, feedbackID string) error {
	if in.ID == "" {
		in.ID = fmt.Sprintf("ins-%03d", len(s.instrIDs)+1)
	}
	if _, exists := s.instructions[in.ID]; exists {
		return fmt.Errorf("instruction %s already exists", in.ID)
	}
	s.instructions[in.ID] = in
	s.instrIDs = append(s.instrIDs, in.ID)
	in.Provenance.Editor = editor
	in.Provenance.FeedbackID = feedbackID
	in.Provenance.Version = s.version + 1
	s.log(ChangeEvent{
		Op: OpInsert, Kind: InstructionEntity, EntityID: in.ID,
		Summary: summarize(in.Text), Editor: editor, FeedbackID: feedbackID,
		Instruction: in,
	})
	return nil
}

// UpdateInstruction replaces an existing instruction's content.
func (s *Set) UpdateInstruction(in *Instruction, editor, feedbackID string) error {
	if _, exists := s.instructions[in.ID]; !exists {
		return fmt.Errorf("instruction %s does not exist", in.ID)
	}
	in.Provenance.Editor = editor
	in.Provenance.FeedbackID = feedbackID
	in.Provenance.Version = s.version + 1
	s.instructions[in.ID] = in
	s.log(ChangeEvent{
		Op: OpUpdate, Kind: InstructionEntity, EntityID: in.ID,
		Summary: summarize(in.Text), Editor: editor, FeedbackID: feedbackID,
		Instruction: in,
	})
	return nil
}

// DeleteInstruction removes an instruction.
func (s *Set) DeleteInstruction(id, editor, feedbackID string) error {
	if _, exists := s.instructions[id]; !exists {
		return fmt.Errorf("instruction %s does not exist", id)
	}
	delete(s.instructions, id)
	s.instrIDs = removeID(s.instrIDs, id)
	s.log(ChangeEvent{
		Op: OpDelete, Kind: InstructionEntity, EntityID: id,
		Editor: editor, FeedbackID: feedbackID,
	})
	return nil
}

// Instruction returns the instruction by ID, or nil.
func (s *Set) Instruction(id string) *Instruction { return s.instructions[id] }

// Instructions returns all instructions in insertion order.
func (s *Set) Instructions() []*Instruction { return inOrder(s.instrIDs, s.instructions) }

// InstructionsByIntent returns instructions associated with the intent.
func (s *Set) InstructionsByIntent(intentID string) []*Instruction {
	var out []*Instruction
	for _, id := range s.instrIDs {
		in := s.instructions[id]
		for _, iid := range in.IntentIDs {
			if iid == intentID {
				out = append(out, in)
				break
			}
		}
	}
	return out
}

// DefinesTerm returns the instruction defining the given domain term
// (case-insensitive), or nil.
func (s *Set) DefinesTerm(term string) *Instruction {
	for _, id := range s.instrIDs {
		in := s.instructions[id]
		for _, t := range in.Terms {
			if strings.EqualFold(t, term) {
				return in
			}
		}
	}
	return nil
}

// --- retrieval directives ---

// AddDirective appends a retrieval/re-ranking directive.
func (s *Set) AddDirective(text, editor, feedbackID string) {
	s.directives = append(s.directives, text)
	s.log(ChangeEvent{
		Op: OpInsert, Kind: DirectiveEntity,
		EntityID: fmt.Sprintf("dir-%d", len(s.directives)),
		Summary:  summarize(text), Editor: editor, FeedbackID: feedbackID,
		Directive: text,
	})
}

// Directives returns the retrieval directives in insertion order.
func (s *Set) Directives() []string { return slices.Clip(s.directives) }

// --- history, checkpoints, clones ---

// log stamps Seq and Version onto the event and appends it to the history.
// All mutators funnel through here, so the history is a complete, replayable
// serialization of the set (see ApplyEvent).
func (s *Set) log(ev ChangeEvent) {
	s.version++
	s.nextSeq++
	ev.Seq = s.nextSeq
	ev.Version = s.version
	s.history = append(s.history, ev)
}

// History returns the audit log, oldest first.
func (s *Set) History() []ChangeEvent { return slices.Clip(s.history) }

// HistorySince returns the audit events with Seq strictly greater than seq,
// oldest first — the tail a write-ahead log needs to persist after a commit
// at seq.
func (s *Set) HistorySince(seq int) []ChangeEvent {
	// Seqs are contiguous from 1, so the tail starts at index seq.
	if seq < 0 {
		seq = 0
	}
	if seq >= len(s.history) {
		return nil
	}
	return slices.Clip(s.history[seq:])
}

// LastSeq reports the sequence number of the most recent history event (0
// for a fresh set).
func (s *Set) LastSeq() int { return s.nextSeq }

// MaxCheckpoints bounds the revert window: each checkpoint lists the whole
// content and long-lived sets checkpoint on every merge, so the list would
// otherwise grow without bound (inflating every serialized State). Older
// checkpoints are dropped as new ones are recorded; their history events
// remain, but Revert to them fails.
const MaxCheckpoints = 32

// Checkpoint records a named snapshot and returns its ID. Only the newest
// MaxCheckpoints snapshots are retained (see MaxCheckpoints).
func (s *Set) Checkpoint(name string) int {
	s.nextCheckpointID++
	cp := Checkpoint{
		ID:      s.nextCheckpointID,
		Name:    name,
		Version: s.version,
		Content: s.content(),
	}
	s.checkpoints = append(s.checkpoints, cp)
	s.pruneCheckpoints()
	s.log(ChangeEvent{
		Op: OpCheckpoint, Kind: DirectiveEntity,
		EntityID: fmt.Sprintf("cp-%d", cp.ID), Summary: "checkpoint " + name,
		Editor: "system", CheckpointID: cp.ID, CheckpointName: name,
	})
	return cp.ID
}

// Checkpoints lists recorded checkpoints, oldest first.
func (s *Set) Checkpoints() []Checkpoint { return slices.Clip(s.checkpoints) }

// pruneCheckpoints enforces MaxCheckpoints after every checkpoint append.
// It runs identically in Checkpoint() and in ApplyEvent's replay of a
// checkpoint event, so a replayed set always holds the same revert window
// as the original.
func (s *Set) pruneCheckpoints() {
	if len(s.checkpoints) <= MaxCheckpoints {
		return
	}
	s.checkpoints = s.checkpoints[len(s.checkpoints)-MaxCheckpoints:]
}

// Revert restores the set's contents to a checkpoint. History and
// checkpoints are preserved (the revert itself is logged), matching the
// paper's "revert back to any prior checkpoint" with full auditability.
func (s *Set) Revert(checkpointID int) error {
	var cp *Checkpoint
	for i := range s.checkpoints {
		if s.checkpoints[i].ID == checkpointID {
			cp = &s.checkpoints[i]
			break
		}
	}
	if cp == nil {
		return fmt.Errorf("checkpoint %d does not exist", checkpointID)
	}
	s.restore(cp.Content)
	s.log(ChangeEvent{
		Op: OpRevert, Kind: DirectiveEntity,
		EntityID: fmt.Sprintf("cp-%d", cp.ID), Summary: "revert to " + cp.Name,
		Editor: "system", CheckpointID: cp.ID, CheckpointName: cp.Name,
	})
	return nil
}

// content lists the set's content in insertion order.
func (s *Set) content() Content {
	return Content{
		Examples:     s.Examples(),
		Instructions: s.Instructions(),
		Intents:      s.Intents(),
		Directives:   slices.Clip(s.directives),
	}
}

// restore makes c the set's content. The set shares c's entities and
// directives but owns its maps and ID-order slices, which the mutators
// change in place.
func (s *Set) restore(c Content) {
	s.examples, s.exampleIDs = byID(c.Examples, func(e *Example) string { return e.ID })
	s.instructions, s.instrIDs = byID(c.Instructions, func(in *Instruction) string { return in.ID })
	s.intents, s.intentIDs = byID(c.Intents, func(in *Intent) string { return in.ID })
	s.directives = slices.Clip(c.Directives)
}

// CloneFull copies the set — contents, version, sequence counter, audit
// history and checkpoints — sharing every entity, event and checkpoint
// with the original (see Set). Staging and merge flows use it to build the
// next generation of the knowledge set without mutating the served
// (read-only) one: apply edits to the clone, rebuild indices via
// Engine.WithKnowledge, hot-swap.
func (s *Set) CloneFull() *Set {
	return &Set{
		examples:         maps.Clone(s.examples),
		instructions:     maps.Clone(s.instructions),
		intents:          maps.Clone(s.intents),
		exampleIDs:       slices.Clone(s.exampleIDs),
		instrIDs:         slices.Clone(s.instrIDs),
		intentIDs:        slices.Clone(s.intentIDs),
		directives:       slices.Clip(s.directives),
		version:          s.version,
		history:          slices.Clip(s.history),
		checkpoints:      slices.Clip(s.checkpoints),
		nextSeq:          s.nextSeq,
		nextCheckpointID: s.nextCheckpointID,
	}
}

// --- edits (shared with the feedback module) ---

// EditOp enumerates edit operations on the knowledge set.
type EditOp string

// Edit operations.
const (
	EditInsert    EditOp = "insert"
	EditUpdate    EditOp = "update"
	EditDelete    EditOp = "delete"
	EditDirective EditOp = "directive"
)

// Edit is one recommended (or manual) change to the knowledge set — the unit
// the feedback solver stages, regression-tests and merges.
type Edit struct {
	Op   EditOp
	Kind EntityKind
	// ID targets the existing entity for update/delete.
	ID string
	// Example/Instruction carry new content for insert/update.
	Example     *Example
	Instruction *Instruction
	// Directive carries retrieval-directive text.
	Directive string
	// Rationale explains why the edit is recommended, shown to reviewers.
	Rationale string
}

// Describe renders a one-line human summary of the edit.
func (e Edit) Describe() string {
	switch {
	case e.Op == EditDirective:
		return "add retrieval directive: " + summarize(e.Directive)
	case e.Kind == ExampleEntity && e.Example != nil:
		return fmt.Sprintf("%s example %s: %s", e.Op, e.Example.ID, summarize(e.Example.NL))
	case e.Kind == ExampleEntity:
		return fmt.Sprintf("%s example %s", e.Op, e.ID)
	case e.Kind == InstructionEntity && e.Instruction != nil:
		return fmt.Sprintf("%s instruction %s: %s", e.Op, e.Instruction.ID, summarize(e.Instruction.Text))
	default:
		return fmt.Sprintf("%s %s %s", e.Op, e.Kind, e.ID)
	}
}

// Apply executes an edit against the set.
func (s *Set) Apply(edit Edit, editor, feedbackID string) error {
	switch edit.Op {
	case EditDirective:
		s.AddDirective(edit.Directive, editor, feedbackID)
		return nil
	case EditInsert:
		switch edit.Kind {
		case ExampleEntity:
			if edit.Example == nil {
				return fmt.Errorf("insert example edit has no payload")
			}
			// Copy so staging never mutates the caller's edit (auto-ID
			// assignment and provenance are per-application).
			e := *edit.Example
			return s.InsertExample(&e, editor, feedbackID)
		case InstructionEntity:
			if edit.Instruction == nil {
				return fmt.Errorf("insert instruction edit has no payload")
			}
			in := *edit.Instruction
			return s.InsertInstruction(&in, editor, feedbackID)
		}
	case EditUpdate:
		switch edit.Kind {
		case ExampleEntity:
			if edit.Example == nil {
				return fmt.Errorf("update example edit has no payload")
			}
			e := *edit.Example
			if e.ID == "" {
				e.ID = edit.ID
			}
			return s.UpdateExample(&e, editor, feedbackID)
		case InstructionEntity:
			if edit.Instruction == nil {
				return fmt.Errorf("update instruction edit has no payload")
			}
			in := *edit.Instruction
			if in.ID == "" {
				in.ID = edit.ID
			}
			return s.UpdateInstruction(&in, editor, feedbackID)
		}
	case EditDelete:
		switch edit.Kind {
		case ExampleEntity:
			return s.DeleteExample(edit.ID, editor, feedbackID)
		case InstructionEntity:
			return s.DeleteInstruction(edit.ID, editor, feedbackID)
		}
	}
	return fmt.Errorf("unsupported edit %s %s", edit.Op, edit.Kind)
}

// Stage clones the set and applies the edits to the clone, returning the
// staging environment. The live set is untouched.
func (s *Set) Stage(edits []Edit, editor, feedbackID string) (*Set, error) {
	staged := s.CloneFull()
	for _, e := range edits {
		if err := staged.Apply(e, editor, feedbackID); err != nil {
			return nil, fmt.Errorf("staging %s: %w", e.Describe(), err)
		}
	}
	return staged, nil
}

// --- helpers ---

// inOrder lists the entities of m in the order of ids (nil when empty).
func inOrder[T any](ids []string, m map[string]*T) []*T {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*T, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

// byID indexes items by ID and lists their IDs in order.
func byID[T any](items []*T, id func(*T) string) (map[string]*T, []string) {
	m := make(map[string]*T, len(items))
	ids := make([]string, len(items))
	for i, it := range items {
		ids[i] = id(it)
		m[ids[i]] = it
	}
	return m, ids
}

func removeID(ids []string, id string) []string {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

func summarize(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 72 {
		return s[:71] + "…"
	}
	return s
}

// Stats summarizes set contents for display.
type Stats struct {
	Examples     int
	Instructions int
	Intents      int
	Directives   int
	Version      int
}

// Stats returns current set statistics.
func (s *Set) Stats() Stats {
	return Stats{
		Examples:     len(s.exampleIDs),
		Instructions: len(s.instrIDs),
		Intents:      len(s.intentIDs),
		Directives:   len(s.directives),
		Version:      s.version,
	}
}

// TermsIndex returns all domain terms defined by instructions, sorted.
func (s *Set) TermsIndex() []string {
	seen := make(map[string]bool)
	var out []string
	for _, id := range s.instrIDs {
		for _, t := range s.instructions[id].Terms {
			key := strings.ToUpper(t)
			if !seen[key] {
				seen[key] = true
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out
}
