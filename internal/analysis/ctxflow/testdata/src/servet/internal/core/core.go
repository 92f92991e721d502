// Package core impersonates the engine package servet/internal/core,
// so ctxflow judges this fixture under the engine rule: no root
// context anywhere, with or without a context parameter.
package core

import "context"

// Measure has no context parameter, yet an engine function may not
// mint one: the sweep it starts could never be cancelled or traced.
func Measure() error {
	return sweep(context.Background()) // want `context\.Background in engine package servet/internal/core`
}

func sweep(ctx context.Context) error {
	_ = context.TODO() // want `context\.TODO in engine package servet/internal/core`
	return ctx.Err()
}

// root is flagged at package level too.
var root = context.Background() // want `context\.Background in engine package servet/internal/core`
