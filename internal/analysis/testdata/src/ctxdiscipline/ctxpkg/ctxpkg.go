// Package ctxpkg is a ctxdiscipline fixture: misplaced Context
// parameters and root contexts outside main and tests.
package ctxpkg

import "context"

// Item is a carrier for the method cases.
type Item struct{ id int }

// Bad takes its context second: a violation.
func Bad(id int, ctx context.Context) error {
	return ctx.Err()
}

// Good threads the context first: clean.
func Good(ctx context.Context, id int) error {
	return ctx.Err()
}

// Root roots a fresh context outside main: a violation.
func Root() error {
	return Good(context.Background(), 1)
}

// Todo is the same violation spelled TODO.
func Todo() error {
	return Good(context.TODO(), 2)
}

// Wrap is the same violation inside a method: a non-Context wrapper
// over a Context function has no exemption.
func (it *Item) Wrap() error {
	return Good(context.Background(), it.id)
}

// Deep is a violation inside a nested function literal.
func Deep() error {
	f := func() error { return Good(context.Background(), 4) }
	return f()
}
