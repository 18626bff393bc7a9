package pipeline

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"genedit/internal/embed"
	"genedit/internal/knowledge"
	"genedit/internal/llm"
)

// Operators 3-4 (example and instruction selection) are position-addressed:
// buildIndices lays the knowledge set out once as dense tables indexed by an
// item's position in its retrieval index — the insertion order of
// kset.Examples() / kset.Instructions(), which is also the order embed.Index
// numbers its vectors in — and a request works on positions only. The embed
// index's own id → position map is the one string-keyed lookup left, used
// for the few dozen hits of the global search.

// intentPostings lists the positions of the examples and instructions filed
// under one intent: what Set.ExamplesByIntent / InstructionsByIntent would
// find by walking the whole set. An item naming the intent twice is listed
// twice; candidate collection skips positions it has already marked.
type intentPostings struct {
	examples     []int
	instructions []int
}

// exampleTable holds what example selection and context expansion read
// about each example. The example text vectors themselves stay in exIndex.
type exampleTable struct {
	items []*knowledge.Example // live set entries
	// srcSlot is the slot of each example's SourceQuestion in srcVecs, -1
	// when it has none. Fragments decomposed from one query share a slot,
	// so a request scores each distinct question once.
	srcSlot []int
	srcVecs []embed.Embedded
	// pairVecs embed NL+" "+SQL, the text context expansion compares
	// instructions with.
	pairVecs []embed.Embedded
}

// instructionTable is the instruction-side counterpart. The retrieval-text
// vectors stay in insIndex.
type instructionTable struct {
	items []*knowledge.Instruction // live set entries
	// textVecs embed Text alone, the side of the directive boost that
	// belongs to the instruction.
	textVecs []embed.Embedded
	// boost is 0.1 · max over directives of Cosine(directive, Text): it
	// does not depend on the query, so it is computed here once.
	boost []float64
}

// fullExCand is one precomputed full-query example candidate; its ranking
// vector is the entry of Engine.fullVecs at the same position.
type fullExCand struct {
	id  string
	nl  string
	sql string
}

// buildIndices derives every per-engine retrieval structure from the
// knowledge set. With a parent engine (WithKnowledge), an item whose ID the
// parent also holds and whose embedded text is unchanged reuses the parent's
// vector — engines are immutable, so sharing is safe — and only the rest is
// embedded.
func (e *Engine) buildIndices(parent *Engine) {
	e.byIntent = make(map[string]*intentPostings)
	postings := func(intentID string) *intentPostings {
		p := e.byIntent[intentID]
		if p == nil {
			p = &intentPostings{}
			e.byIntent[intentID] = p
		}
		return p
	}

	e.exIndex = embed.NewIndex()
	e.ex = exampleTable{}
	e.fullExs, e.fullVecs = nil, nil
	srcSlotOf := make(map[string]int)
	seenSQL := make(map[string]bool)
	for _, listed := range e.kset.Examples() {
		// The tables are addressed by index position, which is the listing
		// rank as long as no ID is listed twice (a restored set is not
		// checked for that); a repeat names the same live item.
		if _, repeat := e.exIndex.Pos(listed.ID); repeat {
			continue
		}
		ex := e.kset.Example(listed.ID)
		p := len(e.ex.items)
		e.ex.items = append(e.ex.items, ex)

		var prev *knowledge.Example
		pp := -1
		if parent != nil {
			if at, ok := parent.exIndex.Pos(ex.ID); ok {
				prev, pp = parent.ex.items[at], at
			}
		}

		if prev != nil && prev.NL == ex.NL && prev.Pseudo == ex.Pseudo {
			e.exIndex.AddEmbedded(ex.ID, parent.exIndex.Vectors()[pp])
		} else {
			e.exIndex.Add(ex.ID, ex.Text())
		}

		slot := -1
		if ex.SourceQuestion != "" {
			var known bool
			if slot, known = srcSlotOf[ex.SourceQuestion]; !known {
				slot = len(e.ex.srcVecs)
				srcSlotOf[ex.SourceQuestion] = slot
				var v embed.Embedded
				if prev != nil && prev.SourceQuestion == ex.SourceQuestion {
					v = parent.ex.srcVecs[parent.ex.srcSlot[pp]]
				} else {
					v = embed.Embed(ex.SourceQuestion)
				}
				e.ex.srcVecs = append(e.ex.srcVecs, v)
			}
		}
		e.ex.srcSlot = append(e.ex.srcSlot, slot)

		var pv embed.Embedded
		if prev != nil && prev.NL == ex.NL && prev.SQL == ex.SQL {
			pv = parent.ex.pairVecs[pp]
		} else {
			pv = embed.Embed(ex.NL + " " + ex.SQL)
		}
		e.ex.pairVecs = append(e.ex.pairVecs, pv)

		for _, intentID := range ex.IntentIDs {
			post := postings(intentID)
			post.examples = append(post.examples, p)
		}

		if ex.SourceSQL != "" && !seenSQL[ex.SourceSQL] {
			seenSQL[ex.SourceSQL] = true
			e.fullExs = append(e.fullExs, &fullExCand{
				id:  fmt.Sprintf("full-%03d", len(e.fullExs)+1),
				nl:  ex.SourceQuestion,
				sql: ex.SourceSQL,
			})
			if slot >= 0 { // ranked by its question, which the slot already embeds
				e.fullVecs = append(e.fullVecs, e.ex.srcVecs[slot])
			} else {
				e.fullVecs = append(e.fullVecs, embed.Embed(ex.SourceSQL))
			}
		}
	}

	e.insIndex = embed.NewIndex()
	e.ins = instructionTable{}
	for _, listed := range e.kset.Instructions() {
		if _, repeat := e.insIndex.Pos(listed.ID); repeat {
			continue
		}
		ins := e.kset.Instruction(listed.ID)
		p := len(e.ins.items)
		e.ins.items = append(e.ins.items, ins)

		var prev *knowledge.Instruction
		pp := -1
		if parent != nil {
			if at, ok := parent.insIndex.Pos(ins.ID); ok {
				prev, pp = parent.ins.items[at], at
			}
		}

		sameText := prev != nil && prev.Text == ins.Text
		if sameText && prev.SQLHint == ins.SQLHint {
			e.insIndex.AddEmbedded(ins.ID, parent.insIndex.Vectors()[pp])
		} else {
			e.insIndex.Add(ins.ID, ins.RetrievalText())
		}

		var tv embed.Embedded
		if sameText {
			tv = parent.ins.textVecs[pp]
		} else {
			tv = embed.Embed(ins.Text)
		}
		e.ins.textVecs = append(e.ins.textVecs, tv)

		for _, intentID := range ins.IntentIDs {
			post := postings(intentID)
			post.instructions = append(post.instructions, p)
		}
	}

	// Retrieval directives: instructions matching a directive's vocabulary
	// get a small ranking boost.
	e.ins.boost = make([]float64, len(e.ins.items))
	for _, d := range e.kset.Directives() {
		dv := embed.Embed(d)
		for i, tv := range e.ins.textVecs {
			if c := dv.Cosine(tv); c > e.ins.boost[i] {
				e.ins.boost[i] = c
			}
		}
	}
	for i := range e.ins.boost {
		e.ins.boost[i] *= 0.1
	}

	e.intentOpts = nil
	for _, it := range e.kset.Intents() {
		e.intentOpts = append(e.intentOpts, llm.IntentOption{ID: it.ID, Name: it.Name, Description: it.Description})
	}

	// Seal the retrieval indices: partition them for sub-linear search while
	// the engine is still private to this goroutine. Engines are immutable
	// once served, so approval hot-swaps re-enter here via WithKnowledge and
	// always publish a freshly partitioned — never stale — index.
	e.exIndex.EnableANN(e.ret.ann)
	e.insIndex.EnableANN(e.ret.ann)
	e.exIndex.Build()
	e.insIndex.Build()
}

// scoredPos is one candidate of a selector: its table position and score.
type scoredPos struct {
	pos   int
	score float64
}

// selScratch is the per-request working memory of the selectors. It is
// pooled, so what a request allocates does not grow with the knowledge set;
// a scratch belongs to one selector call at a time. It holds positions and
// scores only, never a vector, so a pooled scratch keeps no retired
// engine's storage alive.
type selScratch struct {
	mark   []bool // by position: already a candidate
	cands  []int  // candidate positions, in discovery order
	scores []float64
	ranked []scoredPos

	slotAt     []int // by source-question slot: 1 + its place in slots, 0 when unseen
	slots      []int
	slotScores []float64

	// Context expansion: each candidate's best cosine with a selected
	// example so far, and its cosines with the current one.
	expand    []float64
	ctxScores []float64
}

var selScratchPool = sync.Pool{New: func() any { return new(selScratch) }}

// sized returns buf with length n, reallocating only when it is too small.
// The contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// begin starts candidate collection over a table of n items.
func (s *selScratch) begin(n int) {
	s.mark = sized(s.mark, n)
	clear(s.mark)
	s.cands = s.cands[:0]
}

// add makes the positions candidates, skipping those that already are.
func (s *selScratch) add(positions ...int) {
	for _, p := range positions {
		if !s.mark[p] {
			s.mark[p] = true
			s.cands = append(s.cands, p)
		}
	}
}

// cosines scores the index vectors at the candidate positions against the
// query into s.scores: Cosine(qv, vector), bit for bit.
func (s *selScratch) cosines(qv embed.Vector, qNorm2 float64, ix *embed.Index) {
	s.scores = sized(s.scores, len(s.cands))
	embed.CosineGather(qv, qNorm2, ix.Vectors(), s.cands, s.scores)
}

// selectExamples implements operator 3. Candidates come from the classified
// intents plus a global query-similarity search; all candidates are
// re-ranked by cosine similarity with the reformulated query (whose
// precomputed embedding qv is threaded in by GenerateContext). When
// decomposition is ablated the knowledge set's fragments are regrouped into
// traditional full-query examples.
func (e *Engine) selectExamples(qv embed.Vector, intentIDs []string) []llm.RetrievedExample {
	if e.cfg.DisableDecomposition {
		return e.selectFullExamples(qv)
	}
	s := selScratchPool.Get().(*selScratch)
	defer selScratchPool.Put(s)

	s.begin(len(e.ex.items))
	for _, id := range intentIDs {
		if post := e.byIntent[id]; post != nil {
			s.add(post.examples...)
		}
	}
	for _, hit := range e.exIndex.SearchVector(qv, e.ret.exFanout) {
		if p, ok := e.exIndex.Pos(hit.ID); ok {
			s.add(p)
		}
	}

	qNorm2 := embed.Norm2(qv)
	s.cosines(qv, qNorm2, e.exIndex)

	// A fragment is relevant when its own text matches the query or when the
	// question of the query it was decomposed from does — sub-statements of
	// similar historical questions are the reusable unit §3.2 is built
	// around. Each distinct source question among the candidates is scored
	// once, not once per fragment.
	s.slotAt = sized(s.slotAt, len(e.ex.srcVecs))
	clear(s.slotAt)
	s.slots = s.slots[:0]
	for _, p := range s.cands {
		if slot := e.ex.srcSlot[p]; slot >= 0 && s.slotAt[slot] == 0 {
			s.slots = append(s.slots, slot)
			s.slotAt[slot] = len(s.slots)
		}
	}
	s.slotScores = sized(s.slotScores, len(s.slots))
	embed.CosineGather(qv, qNorm2, e.ex.srcVecs, s.slots, s.slotScores)

	s.ranked = sized(s.ranked, len(s.cands))
	for i, p := range s.cands {
		score := s.scores[i]
		if slot := e.ex.srcSlot[p]; slot >= 0 {
			if viaSource := 0.92 * s.slotScores[s.slotAt[slot]-1]; viaSource > score {
				score = viaSource
			}
		}
		s.ranked[i] = scoredPos{pos: p, score: score}
	}
	top := selectTop(s.ranked, e.cfg.TopExamples, func(p int) string { return e.ex.items[p].ID })
	out := make([]llm.RetrievedExample, len(top))
	for i, sp := range top {
		ex := e.ex.items[sp.pos]
		out[i] = llm.RetrievedExample{
			ID: ex.ID, NL: ex.NL, Pseudo: ex.Pseudo, SQL: ex.SQL,
			Clause: ex.Clause, Terms: ex.Terms,
			Score: sp.score,
		}
	}
	return out
}

// selectTop is the ranking step the three selectors share: it reorders
// ranked so that its first min(k, len) entries are the best under the
// retrieval order (score descending, then ID ascending; IDs are unique, so
// the order is total and the result does not depend on how the candidates
// were found) and returns that prefix. Candidate sets grow with the
// knowledge set while k stays a handful, so it never sorts more than k
// entries: a sorted window of the k best so far takes the rest one by one.
func selectTop(ranked []scoredPos, k int, id func(pos int) string) []scoredPos {
	k = min(k, len(ranked))
	if k <= 0 {
		return ranked[:0]
	}
	before := func(a, b scoredPos) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		}
		return strings.Compare(id(a.pos), id(b.pos))
	}
	top := ranked[:k]
	slices.SortFunc(top, before)
	for _, sp := range ranked[k:] {
		if before(sp, top[k-1]) >= 0 {
			continue
		}
		// sp displaces the current kth: shift the tail down one place.
		at, _ := slices.BinarySearchFunc(top, sp, before)
		copy(top[at+1:], top[at:k-1])
		top[at] = sp
	}
	return top
}

// selectFullExamples regroups decomposed fragments into whole-query
// examples (the traditional representation, used by the "w/o Decomposition"
// ablation).
func (e *Engine) selectFullExamples(qv embed.Vector) []llm.RetrievedExample {
	s := selScratchPool.Get().(*selScratch)
	defer selScratchPool.Put(s)

	n := len(e.fullExs)
	s.scores = sized(s.scores, n)
	embed.CosineBatch(qv, embed.Norm2(qv), e.fullVecs, s.scores)
	s.ranked = sized(s.ranked, n)
	for i, score := range s.scores {
		s.ranked[i] = scoredPos{pos: i, score: score}
	}
	top := selectTop(s.ranked, e.cfg.TopExamples, func(p int) string { return e.fullExs[p].id })
	out := make([]llm.RetrievedExample, len(top))
	for i, sp := range top {
		fe := e.fullExs[sp.pos]
		out[i] = llm.RetrievedExample{ID: fe.id, NL: fe.nl, FullSQL: fe.sql, Score: sp.score}
	}
	return out
}

// selectInstructions implements operator 4: candidates from intents plus
// global search, re-ranked by similarity to the query AND to the already-
// selected examples — the context expansion the paper's compounding
// operators are named for. qv is the precomputed embedding of the
// reformulated query.
func (e *Engine) selectInstructions(qv embed.Vector, intentIDs []string, examples []llm.RetrievedExample) []llm.RetrievedInstruction {
	s := selScratchPool.Get().(*selScratch)
	defer selScratchPool.Put(s)

	s.begin(len(e.ins.items))
	for _, id := range intentIDs {
		if post := e.byIntent[id]; post != nil {
			s.add(post.instructions...)
		}
	}
	for _, hit := range e.insIndex.SearchVector(qv, e.ret.insFanout) {
		if p, ok := e.insIndex.Pos(hit.ID); ok {
			s.add(p)
		}
	}
	if len(s.cands) == 0 {
		return nil
	}

	s.cosines(qv, embed.Norm2(qv), e.insIndex)

	if !e.cfg.DisableContextExpansion && len(examples) > 0 {
		// Each selected example plays the query: it is scattered dense once
		// and every candidate's cosine with it gathers the instruction's
		// stored components (Cosine is symmetric bit for bit). A candidate
		// keeps its best cosine over the examples; a maximum does not
		// depend on the order it is taken in.
		n := len(s.cands)
		s.expand, s.ctxScores = sized(s.expand, n), sized(s.ctxScores, n)
		clear(s.expand)
		var buf [embed.Dim]float64
		for _, ex := range examples {
			var ev embed.Embedded
			if p, ok := e.exIndex.Pos(ex.ID); ok {
				ev = e.ex.pairVecs[p]
			} else { // regrouped full-query examples are not knowledge items
				ev = embed.Memo(ex.NL + " " + ex.SQL)
			}
			embed.CosineGather(ev.AppendDense(buf[:0]), ev.Norm2, e.insIndex.Vectors(), s.cands, s.ctxScores)
			for i, c := range s.ctxScores {
				if c > s.expand[i] {
					s.expand[i] = c
				}
			}
		}
		for i := range s.cands {
			s.scores[i] += e.cfg.ExpansionWeight * s.expand[i]
		}
	}

	s.ranked = sized(s.ranked, len(s.cands))
	for i, p := range s.cands {
		s.ranked[i] = scoredPos{pos: p, score: s.scores[i] + e.ins.boost[p]}
	}
	top := selectTop(s.ranked, e.cfg.TopInstructions, func(p int) string { return e.ins.items[p].ID })
	out := make([]llm.RetrievedInstruction, len(top))
	for i, sp := range top {
		ins := e.ins.items[sp.pos]
		out[i] = llm.RetrievedInstruction{
			ID: ins.ID, Text: ins.Text, SQLHint: ins.SQLHint, Terms: ins.Terms,
			Score: sp.score,
		}
	}
	return out
}
