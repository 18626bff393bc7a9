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
// numbers its items in — and a request works on positions only. The index
// is content-addressed: items with equal texts share one vector slot. A
// selector scores each slot of its index once (embed.Index.Scores): the
// global search takes its fan-out from that array and the re-rank reads
// each candidate's score from its slot's entry. The embed index's own id →
// position map is the one string-keyed lookup left, used to find a selected
// example's vectors for context expansion.

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
// knowledge set. Each index embeds each distinct text once. With a parent
// engine (WithKnowledge), an item whose ID the parent also holds and whose
// embedded text is unchanged reuses the parent's vector — engines are
// immutable, so sharing is safe — and only the rest is embedded.
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

	listedEx := e.kset.Examples()
	var parentEx, parentIns *embed.Index
	if parent != nil {
		parentEx, parentIns = parent.exIndex, parent.insIndex
	}
	e.exIndex = newIndex(len(listedEx), parentEx)
	e.ex = exampleTable{}
	e.fullExs, e.fullVecs = nil, nil
	srcSlotOf := make(map[string]int)
	seenSQL := make(map[string]bool)
	for _, ex := range listedEx {
		// The tables are addressed by index position, which is the listing
		// rank as long as no ID is listed twice (a restored set is not
		// checked for that); a repeat names the same live item.
		if _, repeat := e.exIndex.Pos(ex.ID); repeat {
			continue
		}
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
			e.exIndex.AddShared(ex.ID, parent.exIndex, pp)
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

	listedIns := e.kset.Instructions()
	e.insIndex = newIndex(len(listedIns), parentIns)
	e.ins = instructionTable{}
	for _, ins := range listedIns {
		if _, repeat := e.insIndex.Pos(ins.ID); repeat {
			continue
		}
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
			e.insIndex.AddShared(ins.ID, parent.insIndex, pp)
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
}

// newIndex returns an empty retrieval index with room for n items. Rebuilt
// from a parent index after an edit, it will hold about as many distinct
// texts as the parent, plus the few an edit adds; a fresh build leaves that
// number to grow.
func newIndex(n int, parent *embed.Index) *embed.Index {
	if parent == nil {
		return embed.NewIndexSized(n, 0)
	}
	texts := parent.Slots()
	return embed.NewIndexSized(n, texts+texts/8+1)
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
	mark   []bool    // by position: already a candidate
	cands  []int     // candidate positions, in discovery order
	scores []float64 // by vector slot: the slot's cosine with the query
	ranked []scoredPos

	srcScores []float64 // by source-question slot: the question's cosine with the query

	// Context expansion: each candidate's vector slot, its best cosine with
	// a selected example so far, and its cosines with the current one.
	candSlots []int
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

// search scores every vector slot of ix against the query into s.scores —
// the selector's one scoring pass — and makes the fanout best items
// candidates: the global similarity search. Each item scores its slot's
// entry. selectTop ranks in the retrieval order (score descending, ID
// ascending), so the fan-out is the exact top-k of the index.
func (s *selScratch) search(qv embed.Vector, qNorm2 float64, ix *embed.Index, fanout int, id func(pos int) string) {
	s.scores = sized(s.scores, ix.Slots())
	ix.Scores(qv, qNorm2, s.scores)
	s.ranked = sized(s.ranked, ix.Len())
	for p := range s.ranked {
		s.ranked[p] = scoredPos{pos: p, score: s.scores[ix.Slot(p)]}
	}
	for _, sp := range selectTop(s.ranked, fanout, id) {
		s.add(sp.pos)
	}
}

// selectExamples implements operator 3. Candidates come from the classified
// intents plus a global query-similarity search; all candidates are
// re-ranked by cosine similarity with the reformulated query (whose
// precomputed embedding qv is threaded in by GenerateContext), read from the
// pass the search made. When decomposition is ablated the knowledge set's
// fragments are regrouped into traditional full-query examples.
func (e *Engine) selectExamples(qv embed.Vector, intentIDs []string) []llm.RetrievedExample {
	if e.cfg.DisableDecomposition {
		return e.selectFullExamples(qv)
	}
	s := selScratchPool.Get().(*selScratch)
	defer selScratchPool.Put(s)

	id := func(p int) string { return e.ex.items[p].ID }
	s.begin(len(e.ex.items))
	for _, intentID := range intentIDs {
		if post := e.byIntent[intentID]; post != nil {
			s.add(post.examples...)
		}
	}
	qNorm2 := embed.Norm2(qv)
	s.search(qv, qNorm2, e.exIndex, e.ret.exFanout, id)

	// A fragment is relevant when its own text matches the query or when the
	// question of the query it was decomposed from does — sub-statements of
	// similar historical questions are the reusable unit §3.2 is built
	// around. Each distinct source question is scored once, not once per
	// fragment.
	s.srcScores = sized(s.srcScores, len(e.ex.srcVecs))
	embed.CosineBatch(qv, qNorm2, e.ex.srcVecs, s.srcScores)

	s.ranked = sized(s.ranked, len(s.cands))
	for i, p := range s.cands {
		score := s.scores[e.exIndex.Slot(p)]
		if slot := e.ex.srcSlot[p]; slot >= 0 {
			if viaSource := 0.92 * s.srcScores[slot]; viaSource > score {
				score = viaSource
			}
		}
		s.ranked[i] = scoredPos{pos: p, score: score}
	}
	top := selectTop(s.ranked, e.ret.topExamples, id)
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
// entries: a sorted window of the k best so far takes the rest one by one
// (windowTop).
//
// Items that share a vector slot tie, so a large knowledge set has many
// ties, and each costs the window an ID comparison. Past 2k candidates a
// float-only pass first finds the k-th best score t (kthScore) and keeps
// only the entries scoring at least t. Every entry of the true top k scores
// at least t, and the order is total, so the window returns the same
// prefix in the same order from what is left.
func selectTop(ranked []scoredPos, k int, id func(pos int) string) []scoredPos {
	k = min(k, len(ranked))
	if k <= 0 {
		return ranked[:0]
	}
	if len(ranked) > 2*k {
		if t, ok := kthScore(ranked, k); ok {
			n := 0
			for _, sp := range ranked {
				if sp.score >= t {
					ranked[n] = sp
					n++
				}
			}
			ranked = ranked[:n]
		}
	}
	return windowTop(ranked, k, id)
}

// windowTop is selectTop's ranking for 1 ≤ k ≤ len(ranked), without the
// pre-pass: a sorted window of the k best so far takes the entries one by
// one.
func windowTop(ranked []scoredPos, k int, id func(pos int) string) []scoredPos {
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

// kthWindow bounds the k kthScore serves: its window lives on the stack.
const kthWindow = 64

// kthScore returns the k-th largest score in ranked, counting
// multiplicity, for 1 ≤ k ≤ len(ranked). It keeps the k best scores seen so
// far in a descending window, compared as floats only. ok is false when k
// exceeds the window or a score is NaN: the retrieval order treats NaN as
// a tie, which no threshold can express.
func kthScore(ranked []scoredPos, k int) (t float64, ok bool) {
	if k > kthWindow {
		return 0, false
	}
	var buf [kthWindow]float64
	w := buf[:k]
	for i, sp := range ranked[:k] {
		if sp.score != sp.score {
			return 0, false
		}
		w[i] = sp.score
	}
	slices.Sort(w)
	slices.Reverse(w)
	t = w[k-1]
	for _, sp := range ranked[k:] {
		x := sp.score
		if !(x > t) {
			if x != x {
				return 0, false
			}
			continue
		}
		i := k - 1
		for ; i > 0 && x > w[i-1]; i-- {
			w[i] = w[i-1]
		}
		w[i] = x
		t = w[k-1]
	}
	return t, true
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
	top := selectTop(s.ranked, e.ret.topExamples, func(p int) string { return e.fullExs[p].id })
	out := make([]llm.RetrievedExample, len(top))
	for i, sp := range top {
		fe := e.fullExs[sp.pos]
		out[i] = llm.RetrievedExample{ID: fe.id, NL: fe.nl, FullSQL: fe.sql, Score: sp.score}
	}
	return out
}

// selectInstructions implements operator 4: candidates from intents plus
// global search, re-ranked by similarity to the query (read from the pass
// the search made) AND to the already-selected examples — the context
// expansion the paper's compounding operators are named for. qv is the
// precomputed embedding of the reformulated query.
func (e *Engine) selectInstructions(qv embed.Vector, intentIDs []string, examples []llm.RetrievedExample) []llm.RetrievedInstruction {
	s := selScratchPool.Get().(*selScratch)
	defer selScratchPool.Put(s)

	id := func(p int) string { return e.ins.items[p].ID }
	s.begin(len(e.ins.items))
	for _, intentID := range intentIDs {
		if post := e.byIntent[intentID]; post != nil {
			s.add(post.instructions...)
		}
	}
	s.search(qv, embed.Norm2(qv), e.insIndex, e.ret.insFanout, id)
	if len(s.cands) == 0 {
		return nil
	}

	expanding := !e.cfg.DisableContextExpansion && len(examples) > 0
	if expanding {
		// Each selected example plays the query: it is scattered dense once
		// and every candidate's cosine with it gathers the instruction's
		// stored components (Cosine is symmetric bit for bit). A candidate
		// keeps its best cosine over the examples; a maximum does not
		// depend on the order it is taken in.
		n := len(s.cands)
		s.candSlots, s.expand, s.ctxScores = sized(s.candSlots, n), sized(s.expand, n), sized(s.ctxScores, n)
		for i, p := range s.cands {
			s.candSlots[i] = e.insIndex.Slot(p)
		}
		clear(s.expand)
		var buf [embed.Dim]float64
		for _, ex := range examples {
			var ev embed.Embedded
			if p, ok := e.exIndex.Pos(ex.ID); ok {
				ev = e.ex.pairVecs[p]
			} else { // regrouped full-query examples are not knowledge items
				ev = embed.Memo(ex.NL + " " + ex.SQL)
			}
			embed.CosineGather(ev.AppendDense(buf[:0]), ev.Norm2, e.insIndex.Vectors(), s.candSlots, s.ctxScores)
			for i, c := range s.ctxScores {
				if c > s.expand[i] {
					s.expand[i] = c
				}
			}
		}
	}

	s.ranked = sized(s.ranked, len(s.cands))
	for i, p := range s.cands {
		score := s.scores[e.insIndex.Slot(p)]
		if expanding {
			score += e.ret.expansionWeight * s.expand[i]
		}
		s.ranked[i] = scoredPos{pos: p, score: score + e.ins.boost[p]}
	}
	top := selectTop(s.ranked, e.ret.topInstructions, id)
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
