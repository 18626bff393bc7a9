package main

// The online feedback surface: the continuous-improvement loop of §4.2
// exposed over HTTP so SMEs can drive open → regenerate → submit → approve
// against the live daemon. Approved merges flow through the service's
// merge hook — persisted to the knowledge store (when -store is set) and
// hot-swapped into serving — so the loop compounds across requests and
// survives restarts.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"genedit"
	"genedit/internal/feedback"
)

// goldenPerDB is the size of each database's golden regression suite: the
// first cases of the database, mirroring the paper demo's "few selected
// golden queries".
const goldenPerDB = 4

// feedbackHub owns the daemon's SME sessions: one lazily built solver per
// database (sharing the service's engines and merge hook) and the open
// sessions keyed by a hub-global feedback ID.
type feedbackHub struct {
	svc   *genedit.Service
	suite *genedit.Benchmark
	// maxSessions bounds the abandoned-session leak: clients that open
	// sessions and walk away hold a generation record and staged edits
	// each. Set from the -maxsessions flag.
	maxSessions int

	mu       sync.Mutex
	solvers  map[string]*genedit.Solver
	sessions map[string]*fbSession
}

// fbSession is one SME exchange. Its mutex serializes the session's own
// lifecycle (regenerate/submit/approve/delete); different sessions proceed
// concurrently, and the solver underneath is itself concurrency-safe.
type fbSession struct {
	mu      sync.Mutex
	id      string
	db      string
	sess    *feedback.Session
	pending *feedback.PendingChange
	// done is set, under mu, once the session is approved or deleted; a
	// request that found the session before its eviction then gets 409.
	done bool
}

func newFeedbackHub(svc *genedit.Service, suite *genedit.Benchmark, maxSessions int) *feedbackHub {
	if maxSessions <= 0 {
		maxSessions = defaultMaxOpenSessions
	}
	return &feedbackHub{
		svc:         svc,
		suite:       suite,
		maxSessions: maxSessions,
		solvers:     make(map[string]*genedit.Solver),
		sessions:    make(map[string]*fbSession),
	}
}

// golden picks the database's regression suite.
func (h *feedbackHub) golden(db string) []*genedit.Case {
	var out []*genedit.Case
	for _, c := range h.suite.Cases {
		if c.DB == db && len(out) < goldenPerDB {
			out = append(out, c)
		}
	}
	return out
}

// solverFor returns the database's solver, building it on first use.
func (h *feedbackHub) solverFor(ctx context.Context, db string) (*genedit.Solver, error) {
	h.mu.Lock()
	if s, ok := h.solvers[db]; ok {
		h.mu.Unlock()
		return s, nil
	}
	h.mu.Unlock()
	// Built outside the lock: Service.Solver may trigger an engine build.
	s, err := h.svc.Solver(ctx, db, h.golden(db))
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if prior, ok := h.solvers[db]; ok {
		return prior, nil // lost the race; share the first solver
	}
	h.solvers[db] = s
	return s, nil
}

func (h *feedbackHub) register(db string, sess *feedback.Session) (*fbSession, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.sessions) >= h.maxSessions {
		return nil, fmt.Errorf("too many open feedback sessions (%d); submit, approve or abandon some first", len(h.sessions))
	}
	// The API session ID embeds the solver's per-database FeedbackID (the
	// value stamped into audit-history provenance), so GET /v1/knowledge
	// entries trace back to the exact API session that produced them.
	fs := &fbSession{id: db + "." + sess.FeedbackID, db: db, sess: sess}
	h.sessions[fs.id] = fs
	return fs, nil
}

func (h *feedbackHub) session(id string) *fbSession {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sessions[id]
}

// evict removes a finished session — approved or deleted — from the
// registry, freeing its place under -maxsessions (later requests for the
// ID get 404).
func (h *feedbackHub) evict(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.sessions, id)
}

// defaultMaxOpenSessions is the open-session cap when -maxsessions is not
// given (or is <= 0).
const defaultMaxOpenSessions = 1024

// wire types

type feedbackOpenRequest struct {
	Database string `json:"database"`
	Question string `json:"question"`
	Evidence string `json:"evidence,omitempty"`
}

type feedbackOpenResponse struct {
	ID       string `json:"id"`
	Database string `json:"database"`
	SQL      string `json:"sql"`
	OK       bool   `json:"ok"`
}

type regenerateRequest struct {
	// Feedback is the SME's natural-language critique; the recommender
	// turns it into knowledge-set edits which are staged for this session.
	Feedback string `json:"feedback"`
}

type regenerateResponse struct {
	ID  string `json:"id"`
	SQL string `json:"sql"`
	OK  bool   `json:"ok"`
	// Edits describes everything staged in this session so far.
	Edits      []string `json:"edits"`
	Iterations int      `json:"iterations"`
}

type submitResponse struct {
	ID      string `json:"id"`
	Passed  bool   `json:"passed"`
	Detail  string `json:"detail"`
	Pending bool   `json:"pending"`
}

type approveRequest struct {
	Approver string `json:"approver"`
}

type approveResponse struct {
	ID string `json:"id"`
	// KnowledgeVersion is the served version after the merge; PersistedSeq
	// is how far the durable store has fsynced (0 when running in-memory).
	KnowledgeVersion int  `json:"knowledge_version"`
	PersistedSeq     int  `json:"persisted_seq"`
	Persisted        bool `json:"persisted"`
}

type deleteResponse struct {
	ID string `json:"id"`
	// Withdrawn reports that the session's passing submission, still
	// awaiting approval, was dropped from the solver's pending list.
	Withdrawn bool `json:"withdrawn"`
}

type knowledgeEventJSON struct {
	Seq        int    `json:"seq"`
	Version    int    `json:"version"`
	Op         string `json:"op"`
	Kind       string `json:"kind"`
	EntityID   string `json:"entity_id,omitempty"`
	Summary    string `json:"summary,omitempty"`
	Editor     string `json:"editor,omitempty"`
	FeedbackID string `json:"feedback_id,omitempty"`
}

type knowledgeResponse struct {
	Database        string `json:"database"`
	Version         int    `json:"version"`
	Examples        int    `json:"examples"`
	Instructions    int    `json:"instructions"`
	Intents         int    `json:"intents"`
	Directives      int    `json:"directives"`
	Persisted       bool   `json:"persisted"`
	PersistedSeq    int    `json:"persisted_seq,omitempty"`
	SnapshotVersion int    `json:"snapshot_version,omitempty"`
	HistoryLen      int    `json:"history_len"`
	// History is the tail of the audit log (most recent last), bounded by
	// the ?n= query parameter (default 20; n=0 returns the full log).
	History []knowledgeEventJSON `json:"history"`
}

// registerFeedbackRoutes mounts the online-feedback and knowledge
// endpoints onto the daemon mux.
func (h *feedbackHub) registerRoutes(mux *http.ServeMux, withTimeout func(context.Context) (context.Context, context.CancelFunc)) {
	mux.HandleFunc("POST /v1/feedback/open", func(w http.ResponseWriter, r *http.Request) {
		var req feedbackOpenRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Database == "" || req.Question == "" {
			writeError(w, http.StatusBadRequest, "database and question are required")
			return
		}
		ctx, cancel := withTimeout(r.Context())
		defer cancel()
		solver, err := h.solverFor(ctx, req.Database)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		sess, err := solver.OpenContext(ctx, req.Question, req.Evidence)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		fs, err := h.register(req.Database, sess)
		if err != nil {
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, feedbackOpenResponse{
			ID: fs.id, Database: req.Database,
			SQL: sess.Record.FinalSQL, OK: sess.Record.OK,
		})
	})

	mux.HandleFunc("POST /v1/feedback/{id}/regenerate", func(w http.ResponseWriter, r *http.Request) {
		fs := h.session(r.PathValue("id"))
		if fs == nil {
			writeError(w, http.StatusNotFound, "unknown feedback session")
			return
		}
		var req regenerateRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Feedback == "" {
			writeError(w, http.StatusBadRequest, "feedback text is required")
			return
		}
		ctx, cancel := withTimeout(r.Context())
		defer cancel()
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if fs.done {
			writeError(w, http.StatusConflict, "session already closed")
			return
		}
		rec, err := fs.sess.Feedback(req.Feedback)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		fs.sess.Stage(rec.Edits...)
		regen, err := fs.sess.RegenerateContext(ctx)
		if err != nil {
			// Unstage this round's edits so a client retry (the recommender
			// is deterministic) does not stage a duplicate copy and wedge
			// the session on "already exists".
			fs.sess.Staged = fs.sess.Staged[:len(fs.sess.Staged)-len(rec.Edits)]
			writeServiceError(w, err)
			return
		}
		out := regenerateResponse{ID: fs.id, SQL: regen.FinalSQL, OK: regen.OK, Iterations: fs.sess.Iterations}
		for _, e := range fs.sess.Staged {
			out.Edits = append(out.Edits, e.Describe())
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /v1/feedback/{id}/submit", func(w http.ResponseWriter, r *http.Request) {
		fs := h.session(r.PathValue("id"))
		if fs == nil {
			writeError(w, http.StatusNotFound, "unknown feedback session")
			return
		}
		ctx, cancel := withTimeout(r.Context())
		defer cancel()
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if fs.done {
			writeError(w, http.StatusConflict, "session already closed")
			return
		}
		res, err := fs.sess.SubmitContext(ctx)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		if res.Pending != nil {
			fs.pending = res.Pending
		}
		writeJSON(w, http.StatusOK, submitResponse{
			ID: fs.id, Passed: res.Passed, Detail: res.Detail, Pending: res.Pending != nil,
		})
	})

	mux.HandleFunc("POST /v1/feedback/{id}/approve", func(w http.ResponseWriter, r *http.Request) {
		fs := h.session(r.PathValue("id"))
		if fs == nil {
			writeError(w, http.StatusNotFound, "unknown feedback session")
			return
		}
		var req approveRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Approver == "" {
			req.Approver = "reviewer"
		}
		ctx, cancel := withTimeout(r.Context())
		defer cancel()
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if fs.done {
			writeError(w, http.StatusConflict, "session already closed")
			return
		}
		if fs.pending == nil {
			writeError(w, http.StatusConflict, "no passing submission to approve")
			return
		}
		solver, err := h.solverFor(ctx, fs.db)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		if err := solver.Approve(fs.pending, req.Approver); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		fs.done = true
		h.evict(fs.id)
		info, err := h.svc.Knowledge(ctx, fs.db, 0)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, approveResponse{
			ID: fs.id, KnowledgeVersion: info.Version,
			PersistedSeq: info.PersistedSeq, Persisted: info.Persisted,
		})
	})

	// DELETE abandons a session: it is closed, evicted (freeing its place
	// under -maxsessions) and its pending change, if any, is withdrawn.
	mux.HandleFunc("DELETE /v1/feedback/{id}", func(w http.ResponseWriter, r *http.Request) {
		fs := h.session(r.PathValue("id"))
		if fs == nil {
			writeError(w, http.StatusNotFound, "unknown feedback session")
			return
		}
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if fs.done {
			writeError(w, http.StatusNotFound, "unknown feedback session")
			return
		}
		solver, err := h.solverFor(r.Context(), fs.db)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		fs.done = true
		h.evict(fs.id)
		solver.Withdraw(fs.pending) // a nil pending change is not pending: a no-op
		writeJSON(w, http.StatusOK, deleteResponse{ID: fs.id, Withdrawn: fs.pending != nil})
	})

	mux.HandleFunc("GET /v1/knowledge/{db}", func(w http.ResponseWriter, r *http.Request) {
		n := 20
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
				return
			}
			n = v
		}
		lastN := n
		if n == 0 {
			lastN = -1 // the wire contract: n=0 means the full log
		}
		ctx, cancel := withTimeout(r.Context())
		defer cancel()
		info, err := h.svc.Knowledge(ctx, r.PathValue("db"), lastN)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		out := knowledgeResponse{
			Database:        info.Database,
			Version:         info.Version,
			Examples:        info.Examples,
			Instructions:    info.Instructions,
			Intents:         info.Intents,
			Directives:      info.Directives,
			Persisted:       info.Persisted,
			PersistedSeq:    info.PersistedSeq,
			SnapshotVersion: info.SnapshotVersion,
			HistoryLen:      info.HistoryLen,
		}
		for _, ev := range info.History {
			out.History = append(out.History, knowledgeEventJSON{
				Seq: ev.Seq, Version: ev.Version, Op: string(ev.Op), Kind: string(ev.Kind),
				EntityID: ev.EntityID, Summary: ev.Summary, Editor: ev.Editor, FeedbackID: ev.FeedbackID,
			})
		}
		writeJSON(w, http.StatusOK, out)
	})
}
