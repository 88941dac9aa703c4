package db2rdf

import (
	"context"
	"errors"

	"db2rdf/internal/rel"
)

// Typed query-governance errors, re-exported from the executor so
// library users (who cannot import internal/rel) can match them with
// errors.Is / errors.As. Every query path — Query, QueryContext,
// QueryGraph, Export, and the internal queries run to materialize
// property-path closures — reports aborts through these.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = rel.ErrCanceled
	// ErrDeadlineExceeded reports that the query's deadline (the
	// caller context's or Options.QueryTimeout) passed mid-execution.
	ErrDeadlineExceeded = rel.ErrDeadlineExceeded
	// ErrBudgetExceeded is the errors.Is target for *BudgetError.
	ErrBudgetExceeded = rel.ErrBudgetExceeded
)

// BudgetError reports which resource budget a query tripped (rows or
// memory), the configured limit, and how far over it went. Match with
// errors.As, or errors.Is against ErrBudgetExceeded.
type BudgetError = rel.BudgetError

// PanicError is a panic recovered during query processing, returned as
// an error (with the query text attached by the wrapping layers) so
// one bad query cannot take the process down. Match with errors.As.
type PanicError = rel.PanicError

// ParseError reports SPARQL text that does not parse: a malformed
// query (Query, Explain, Analyze and their Context forms, QueryGraph)
// or a malformed update request (Update). Its message is the parser's.
// Match with errors.As; a query that parses but that the translator
// or executor rejects is not a ParseError.
type ParseError struct {
	Update bool // the text was an update request
	Err    error
}

func (e *ParseError) Error() string { return e.Err.Error() }

// Unwrap returns the parser's error.
func (e *ParseError) Unwrap() error { return e.Err }

// isGovernanceErr reports whether err is one of the typed lifecycle
// errors (cancellation, deadline, budget, contained panic).
func isGovernanceErr(err error) bool {
	var pe *rel.PanicError
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrBudgetExceeded) ||
		errors.As(err, &pe)
}

// ctxErr maps a context's failure state to the typed governance errors
// (nil when ctx is still live). Used by loops outside the executor —
// closure BFS, loader drains — that poll cancellation themselves.
func ctxErr(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadlineExceeded
	default:
		return ErrCanceled
	}
}
