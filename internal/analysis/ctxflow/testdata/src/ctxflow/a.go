// Package ctxflow exercises the context-threading analyzer.
package ctxflow

import "context"

func bad(ctx context.Context) error {
	_ = context.Background()                              // want `context\.Background inside a function that takes a context\.Context`
	sub, cancel := context.WithTimeout(context.TODO(), 0) // want `context\.TODO inside a function that takes a context\.Context`
	defer cancel()
	_ = sub
	return ctx.Err()
}

// boundary has no context parameter: outside the engine packages it is
// the API boundary, where creating the root context is the point.
func boundary() error {
	return work(context.Background())
}

func work(ctx context.Context) error { return ctx.Err() }

func nested(ctx context.Context) {
	// A literal with its own context parameter is its own scope —
	// judged separately, so the finding anchors inside it.
	inner := func(ctx context.Context) {
		_ = context.Background() // want `context\.Background inside a function that takes a context\.Context`
	}
	inner(ctx)

	// A plain literal inherits the enclosing function's obligation.
	plain := func() {
		_ = context.TODO() // want `context\.TODO inside a function that takes a context\.Context`
	}
	plain()
}
