package db2rdf

import "db2rdf/internal/sparql"

// Syntax validation without execution. Query and Update report text
// that does not parse as a *ParseError themselves, from their one
// parse; these are for callers that want the syntax check alone.

// ValidateQuery parses q as a SPARQL query, returning the syntax error
// if it is malformed.
func ValidateQuery(q string) error {
	_, err := sparql.Parse(q)
	return err
}

// ValidateUpdate parses u as a SPARQL update request, returning the
// syntax error if it is malformed.
func ValidateUpdate(u string) error {
	_, err := sparql.ParseUpdate(u)
	return err
}

// IsGovernanceError reports whether err is one of the typed query
// lifecycle errors — cancellation, deadline, row/memory budget, or a
// contained panic. The HTTP endpoint maps governance aborts to 503
// (the store is healthy; the request exceeded its resources) and
// contained panics to 500.
func IsGovernanceError(err error) bool { return isGovernanceErr(err) }
