// Package ignorepkg is a suppression fixture: every placement and
// failure mode of //echoimage:lint-ignore, exercised on ctxdiscipline's
// root-context ban.
package ignorepkg

import "context"

func use(ctx context.Context) error { return ctx.Err() }

// Trailing suppresses on the same line: silenced.
func Trailing() error {
	return use(context.Background()) //echoimage:lint-ignore ctxdiscipline fixture: same-line suppression
}

// Above suppresses from the line directly above: silenced.
func Above() error {
	//echoimage:lint-ignore ctxdiscipline fixture: line-above suppression
	return use(context.Background())
}

// Unsuppressed stays a violation.
func Unsuppressed() error {
	return use(context.TODO())
}

// WrongRule names a different rule: the ctxdiscipline finding survives,
// and the ignore applies (uselessly) to goroutinelife.
func WrongRule() error {
	//echoimage:lint-ignore goroutinelife fixture: wrong rule, does not silence ctxdiscipline
	return use(context.Background())
}

// OneLineOnly shows an ignore reaches exactly one line: the first root
// is silenced, the second is not.
func OneLineOnly() (error, error) {
	//echoimage:lint-ignore ctxdiscipline fixture: only the next line is covered
	x := use(context.Background())
	y := use(context.Background())
	return x, y
}

// Unknown names a rule that does not exist: itself a finding.
func Unknown(ctx context.Context) error {
	//echoimage:lint-ignore nosuchrule fixture: unknown rule
	return use(ctx)
}

// NoReason omits the mandatory reason: itself a finding.
func NoReason(ctx context.Context) error {
	//echoimage:lint-ignore ctxdiscipline
	return use(ctx)
}

// Malformed names no rule at all: itself a finding.
func Malformed(ctx context.Context) error {
	//echoimage:lint-ignore
	return use(ctx)
}
