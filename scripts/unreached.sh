#!/usr/bin/env bash
# Code no program reaches, as the linker sees it (make unreached):
#
#   bash scripts/unreached.sh
#
# Builds every main package outside scripts/ (cmd/rdmamr, benchmark) with
# inlining off, so that a function whose every call would
# be inlined still has a symbol, into a temporary directory it removes. It
# then lists the module's text symbols of each binary with `go tool nm` and
# prints every function declared in the non-test files of internal/ and
# pkg/ that none of them links (scripts/unreached/main.go does the
# matching). Exits 1 when one is missing from scripts/unreached.allow or an
# entry there has gone stale.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export GOTOOLCHAIN=local

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/nm"

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | grep -v '/scripts/')
# shellcheck disable=SC2086 # one argument per package
go build -gcflags=all=-l -o "$tmp/bin/" $mains
for bin in "$tmp"/bin/*; do
	go tool nm "$bin" >"$tmp/nm/$(basename "$bin")"
done
go build -o "$tmp/unreached" ./scripts/unreached
"$tmp/unreached" -allow scripts/unreached.allow "$tmp"/nm/*
