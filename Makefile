# dnsguard build/verify entry points. `make check` is the full local gate:
# vet, the race-enabled suite, and a short fuzz smoke on the dnswire decoders,
# the source table, Rate-Limiter1's buckets and the guard's span-writing
# handlers.

GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 10s

.PHONY: all build test check vet race loc loc-diff bench-check benchtab-check api-check state-check reach-check image-check portable-check fuzz-smoke campaign-smoke fleet-smoke upgrade-smoke testdata

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# gofmt walks bench/ too, which `go vet ./...` does not see.
vet:
	$(GO) vet ./...
	@out=$$($(GOFMT) -l .); test -z "$$out" || { echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; }

# The dataplane packages run again at 1, 2 and 4 Ps: their liveness bugs have
# been ones a single core cannot show.
race:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -shuffle=on -cpu 1,2,4 ./internal/engine ./internal/guard ./internal/fleet ./internal/tcpproxy ./internal/ratelimit

# Non-test Go lines per package, from the files git tracks: the figure a PR
# that says it removed code reports in CHANGES.md, for its parent and itself.
# `root` is the total without bench/, which is its own module.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1; if (d !~ /^bench(\/|$$)/) r += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d root\n%7d total\n", r, t }'

# `make loc` at REF beside the working tree: per directory the non-test Go
# lines at REF, here, and the difference, then the same `root` and total
# rows. REF is read with git ls-tree and git show: nothing is checked out.
loc-diff:
	@test -n "$(REF)" || { echo "usage: make loc-diff REF=<commit>"; exit 1; }
	@{ git ls-tree -r --name-only '$(REF)' | grep '\.go$$' | grep -v '_test\.go$$' | while read -r f; do \
		echo "1 $$(git show '$(REF)':"$$f" | wc -l) $$f"; done; \
	  git ls-files '*.go' | grep -v '_test\.go$$' | while read -r f; do echo "2 $$(wc -l < "$$f") $$f"; done; } | awk '{ \
		d = $$3; if (!sub("/[^/]*$$", "", d)) d = "."; n[d, $$1] += $$2; seen[d] = 1; t[$$1] += $$2; if (d !~ /^bench(\/|$$)/) r[$$1] += $$2 } \
		END { printf "%7s %7s %7s\n", "ref", "now", "diff"; \
			for (d in seen) printf "%7d %7d %+7d %s\n", n[d, 1], n[d, 2], n[d, 2] - n[d, 1], d | "sort -k4"; close("sort -k4"); \
			printf "%7d %7d %+7d root\n%7d %7d %+7d total\n", r[1], r[2], r[2] - r[1], t[1], t[2], t[2] - t[1] }'

# bench/ is its own module, so `go build ./...` and `go test ./...` never
# see it: this is what notices an internal/ change breaking the benchmark.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Every table and figure of the paper as the simulator reproduces it,
# checked against the recording in benchtab_output.txt digit for digit: only
# the wall-clock "(measured in …)" lines may differ. About 2½ minutes.
benchtab-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/benchtab > "$$dir/out" && \
	sed 's/^(measured in .*)$$/(measured in …)/' benchtab_output.txt > "$$dir/want" && \
	sed 's/^(measured in .*)$$/(measured in …)/' "$$dir/out" > "$$dir/got" && \
	diff -u "$$dir/want" "$$dir/got"

# Short deterministic-ish smoke on each fuzz target; regressions in the
# checked-in corpus (testdata/fuzz/...) fail `make test` already, this adds
# fresh mutation coverage. Every target under internal/ has its line here: the
# count is checked first, so one added without a line fails the gate.
fuzz-smoke:
	@test $$(grep -rh '^func Fuzz' internal | wc -l) -eq $$(grep -c '[-]fuzz=' Makefile) || { echo "fuzz-smoke: not one line here per Fuzz target under internal/"; exit 1; }
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzNameRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzViewAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzWalkAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dnswire -run='^$$' -fuzz='^FuzzRepackAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/guard -run='^$$' -fuzz='^FuzzSpliceAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cookie -run='^$$' -fuzz='^FuzzMD5MatchesReference$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srctab -run='^$$' -fuzz='^FuzzSrcTable$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ratelimit -run='^$$' -fuzz='^FuzzBucketsAgree$$' -fuzztime=$(FUZZTIME)

# Run every shipped campaign pack in the deterministic lab (2 shards, fixed
# seed) plus the mitigation-selector transition table: the adversarial gate
# behind DESIGN.md §13. Same-seed runs must match the checked-in goldens.
campaign-smoke:
	$(GO) test ./internal/workload -run='^TestCampaign' -count=1
	$(GO) test ./internal/guard -run='^TestMitigator' -count=1

# Boot the 3-guard netsim fleet and run the shipped fleet packs: the
# catchment-shift acceptance gate (flap moves ≥30% of a 120k-source verified
# population to a cold site mid-attack; the cold site re-admits via the
# fleet-shared keyring; zero verified-traffic drops during the scripted
# drain; bit-identical golden replay) plus site failure and mid-run key
# rotation. The gate behind DESIGN.md §15.
fleet-smoke:
	$(GO) test ./internal/fleet -run='^TestFleet' -count=1

# The zero-downtime acceptance gate behind DESIGN.md §16: every site of the
# rolling-upgrade pack restarted one at a time under live load and a mid-roll
# spoof flood; a keyring rotation seeded through a controller outage and a
# site-pair partition converges by gossip anti-entropy within bounded rounds;
# catchment-moved verified sources re-admit with zero extra cookie exchanges;
# goodput stays ≥ 0.99; the metrics export replays bit-identically against
# the checked-in golden — all under the race detector.
upgrade-smoke:
	$(GO) test -race ./internal/fleet -run='^(TestRollingUpgrade|TestGossip)' -count=1

# The public-API freeze: any change to the exported dnsguard surface fails
# here until testdata/api.txt is deliberately regenerated with
# `go test -run TestAPI -update`.
api-check:
	$(GO) test -run='^TestAPI$$' .

# No table a peer can key is a Go map: in the dataplane — both guards, the
# engine, the limiters, the source table and the TCP proxy — what a
# transaction ID or a source or server address indexes is a bounded,
# preallocated table (DESIGN.md, "State budget"). The guards and the engine
# declare no Go map at all: what they keep per packet is in the budget.
state-check:
	@! grep -nE 'map\[' $$(ls internal/guard/*.go internal/engine/*.go | grep -v '_test\.go$$')
	@! grep -nE 'map\[(uint16|netip\.Addr(Port)?|(srctab\.)?Key|\[16\]byte)\]' $$(ls internal/ratelimit/*.go \
		internal/srctab/*.go internal/tcpproxy/*.go | grep -v '_test\.go$$')

# No func or method of a package a daemon links exists for tests alone: every
# main package — cmd/*, examples/* and the bench module, which is only read —
# is built with inlining off and the linker's dependency dump, and a non-test
# func or method of an internal package in the dependencies of dnsguardd, ansd
# or lrsd that none of them links fails the gate. Type parameters are
# stripped (nsLabel[go.shape.[]uint8] is nsLabel), a method counts with or
# without its pointer receiver, and the funcdata symbols the linker shares
# between functions (.arginfo1, .stkobj, ...) do not count as links.
# REACH_TESTONLY is what only tests may call; an entry that a program links,
# or that names nothing, fails the gate too.
#   Remote.BreakerState, LifecycleStats, Engine.StatsAll, ShardTripped,
#   Quarantined, Histogram.Count, Histogram.Sum, Registry.Get: what a test
#   reads of a guard, an engine or a registry without a scrape;
#   Remote.Resume: undoes Drain, for the lifecycle tests;
#   Limiter2.Sources: the limiter and guard tests count RL2's sources;
#   Name.WireLen, UnpackQuestion: TestWireLen, TestUnpackQuestion, and the
#   view and walk tests measuring and decoding against Unpack;
#   Resolver.Cache, Cache.Flush: guard and resolver tests empty or seed a
#   resolver's cache to force a re-resolution.
REACH_TESTONLY = guard.Remote.BreakerState guard.Remote.LifecycleStats guard.Remote.Resume \
	engine.Engine.StatsAll engine.Engine.ShardTripped engine.Engine.Quarantined \
	metrics.Histogram.Count metrics.Histogram.Sum metrics.Registry.Get \
	ratelimit.Limiter2.Sources dnswire.Name.WireLen dnswire.UnpackQuestion \
	resolver.Resolver.Cache resolver.Cache.Flush
DAEMONS = ./cmd/dnsguardd ./cmd/ansd ./cmd/lrsd

reach-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for p in $$($(GO) list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./cmd/... ./examples/...) bench; do \
		$(GO) -C "$$p" build -gcflags=all=-l -ldflags=-dumpdep -o /dev/null . 2>"$$dir/out" || { cat "$$dir/out"; exit 1; }; \
		cat "$$dir/out" >> "$$dir/dep"; \
	done && \
	awk -v allow="$(REACH_TESTONLY)" ' \
		function norm(s) { while (match(s, /\[[^][]*\]/)) s = substr(s, 1, RSTART - 1) substr(s, RSTART + RLENGTH); gsub(/[(*)]/, "", s); return s } \
		BEGIN { n = split(allow, a, " "); for (i = 1; i <= n; i++) ok["dnsguard/internal/" a[i]] = 1 } \
		FNR == NR { n = split($$0, a, / -> /); for (i = 1; i <= n; i++) \
			if (a[i] ~ /^dnsguard\/internal\// && a[i] !~ /\.(arginfo[0-9]*|argliveinfo|stkobj|opendefer|args_stackmap|wrapinfo)$$/) { \
				s = norm(a[i]); sub(/-fm$$/, "", s); while (!(s in seen)) { seen[s] = 1; if (!sub(/\.[^.\/]*$$/, "", s)) break } } \
			next } \
		/^func / { p = FILENAME; sub(/\/[^\/]*$$/, "", p); sub(/.*\//, "", p); l = substr($$0, 6); r = ""; \
			if (l ~ /^\(/) { r = substr(l, 2, index(l, ")") - 2); sub(/.* /, "", r); r = norm(r) "."; l = substr(l, index(l, ")") + 2) } \
			sub(/[[(].*/, "", l); if (l == "init" || l == "_") next; d = "dnsguard/internal/" p "." r l; declared[d] = 1; \
			if (d in ok) { if (d in seen) { print "reach-check: " d " is linked; drop it from REACH_TESTONLY"; bad = 1 } } \
			else if (!(d in seen)) { print "reach-check: " d " is linked by no program"; bad = 1 } } \
		END { for (d in ok) if (!(d in declared)) { print "reach-check: REACH_TESTONLY names " d ", which is not declared"; bad = 1 }; exit bad }' \
		"$$dir/dep" $$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' $$($(GO) list -deps $(DAEMONS) | grep '^dnsguard/internal/'))

# Most of what a daemon keeps resident is its own binary (DESIGN.md, "State
# budget"): each one's size as bench/rig builds it, its dependency count,
# `static` or the ELF interpreter it asks for, and its ten largest packages
# by symbol size. On Linux it then starts the dnsguardd it built (one shard,
# batch 32, no proxy), prints what /proc/<pid>/status says it holds at idle —
# RssFile is the binary's share, RssAnon the heap and stacks — and stops it.
# Last, the test that keeps net/http, crypto/tls and encoding/json out of all
# three (and net, runtime/cgo and a dynamic dnsguardd on Linux amd64/arm64),
# and the one that keeps the simulator and the harnesses out of every product
# package.
image-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && for d in dnsguardd ansd lrsd; do \
		$(GO) build -buildvcs=false -o "$$dir/" ./cmd/$$d || exit 1; \
		interp=$$(readelf -l "$$dir/$$d" 2>/dev/null | sed -n 's/.*program interpreter: \(.*\)\]/\1/p'); \
		echo "$$d: $$(wc -c < "$$dir/$$d") bytes, $$($(GO) list -deps ./cmd/$$d | wc -l) packages, $${interp:-static}"; \
		$(GO) tool nm -size "$$dir/$$d" | awk 'NF >= 4 { s = $$4; sub(/[\[(].*/, "", s); n = split(s, a, "/"); sub(/\..*/, "", a[n]); \
			p = a[1]; for (i = 2; i <= n; i++) p = p "/" a[i]; size[p] += $$2 } \
			END { for (p in size) printf "%9d %s\n", size[p], p | "sort -rn | head -10" }'; \
	done; \
	if [ "$$(uname -s)" = Linux ]; then \
		"$$dir/dnsguardd" -listen 127.0.0.1:0 -ans 127.0.0.1:9 -zone foo.com -shards 1 -batch 32 -proxy=false -stats 0 >"$$dir/log" 2>&1 & pid=$$!; \
		for i in $$(seq 50); do grep -q 'guarding zone' "$$dir/log" && break; sleep 0.1; done; \
		echo "dnsguardd idle: $$(grep -E '^(VmHWM|RssAnon|RssFile|Threads):' /proc/$$pid/status | tr -s ' \t' ' ' | paste -sd ' ' -)"; \
		kill $$pid; wait $$pid || { cat "$$dir/log"; exit 1; }; \
	fi
	$(GO) test ./cmd/dnsguardd -run='^(TestImagePinned|TestProductSimulatorFree)$$' -count=1 -v

# What a daemon runs differently off Linux amd64/arm64 — realnet's net-based
# sockets (realnet/portable.go): one socket for all shards, one datagram per
# syscall — no other target compiles: vet it for two such platforms, one of
# them Linux, and build it for two more. Cross-compiling needs no network.
# linux/386 also runs natively on an amd64 host, so the portable sockets run
# the realnet tests there, the netapi conformance suite among them, and the
# cookie tests draw their keys from crypto/rand, the portable key source.
portable-check:
	GOOS=darwin GOARCH=arm64 CGO_ENABLED=0 $(GO) vet ./...
	GOOS=linux GOARCH=386 CGO_ENABLED=0 $(GO) vet ./...
	GOOS=linux GOARCH=386 CGO_ENABLED=0 $(GO) build ./...
	GOOS=linux GOARCH=386 CGO_ENABLED=0 $(GO) test ./internal/realnet ./internal/netapi/... ./internal/cookie
	GOOS=freebsd GOARCH=amd64 CGO_ENABLED=0 $(GO) build ./...
	GOOS=windows GOARCH=amd64 CGO_ENABLED=0 $(GO) build ./...

check: vet race bench-check benchtab-check api-check state-check reach-check image-check portable-check campaign-smoke fleet-smoke upgrade-smoke fuzz-smoke

# Regenerate the wire-capture fuzz seeds under internal/dnswire/testdata/.
testdata:
	$(GO) run internal/dnswire/testdata/gen.go
