# Convenience targets; everything is plain dune underneath.

EXAMPLES := quickstart bakery_demo lattice_explore litmus_tour compose_models

.PHONY: all build test examples fuzz-smoke certs serve-smoke serve-load sim-smoke corpus solver family-smoke fmt fmt-check ci clean

all: build

build:
	dune build @all

test:
	dune runtest --force

# Fail fast: one shell, set -e, so the first broken example stops the
# run with its exit code instead of letting later examples mask it.
examples: build
	@set -e; for ex in $(EXAMPLES); do \
	  echo "== $$ex =="; \
	  dune exec examples/$$ex.exe; \
	done

# The CI smoke campaign: small, seeded, must report zero violations.
fuzz-smoke: build
	dune exec bin/smem.exe -- fuzz --seed 42 --count 200 --stats

# Emit the full corpus certificate set (kernel-checked on emission)
# and audit every file offline with the independent kernel.
certs: build
	dune exec bin/smem.exe -- corpus --certify _build/certs
	dune exec bin/smem.exe -- cert verify _build/certs/*.cert

# The serving daemon smoke test: pipe the corpus through one `smem
# serve` process twice; the second pass must be answered entirely from
# the verdict cache and reproduce the golden conformance suite.
serve-smoke: build
	dune exec bin/smem.exe -- api corpus-requests > _build/reqs.ndjson
	cat _build/reqs.ndjson _build/reqs.ndjson \
	  | dune exec bin/smem.exe -- serve --metrics \
	    > _build/responses.ndjson 2> _build/serve-metrics.txt
	python3 scripts/serve_smoke.py _build/reqs.ndjson \
	  _build/responses.ndjson test/golden/verdicts.expected

# Load-test the TCP daemon: concurrent clients replaying corpus
# traffic, then a kill-and-restart pass answered from the persistent
# verdict store.  Writes p50/p99/throughput to BENCH_smem.json; fails
# below the throughput floor or on a warm miss.
serve-load: build
	python3 scripts/serve_load.py --exe _build/default/bin/smem.exe

# The standard test load: generate a deterministic 500-test corpus
# (twice — the artifacts must be byte-identical), replay it through
# the TCP daemon (throughput + warm-restart gates), and ride it along
# a fuzz campaign through the lattice oracle.
corpus: build
	dune exec bin/smem.exe -- corpus generate --seed 42 --count 500 -o _build/corpus-500.txt
	dune exec bin/smem.exe -- corpus generate --seed 42 --count 500 -o _build/corpus-500.again.txt
	cmp _build/corpus-500.txt _build/corpus-500.again.txt
	python3 scripts/serve_load.py --exe _build/default/bin/smem.exe \
	  --clients 2 --repeat 2 --corpus _build/corpus-500.txt
	dune exec bin/smem.exe -- fuzz --seed 42 --count 100 --corpus _build/corpus-500.txt

# The constraint-propagation engine gates: the 500-case solver ≡
# enumerator differential over a generated corpus, the same over
# mixed labels (an ordinary write next to labeled ones, which the
# labeled-order steps must tell apart), and the full corpus matrix
# under --engine solve.  The crossover (the solver overtakes
# enumeration on co-pump) is a test_solve case, run by `make test`.
solver: build
	dune exec bin/smem.exe -- corpus generate --seed 42 --count 500 -o _build/corpus-solver.txt
	dune exec bin/smem.exe -- fuzz --seed 42 --count 500 --engines --no-machines \
	  --corpus _build/corpus-solver.txt
	dune exec bin/smem.exe -- fuzz --seed 42 --count 500 --engines --no-machines \
	  --labels mixed --jobs 2 --stats
	dune exec bin/smem.exe -- corpus --engine solve --stats

# The extended-family gates: the corpus (including the queue/counter
# and partition/session tests) against the family models with
# expectations enforced, kernel-verified certificates for on-demand
# grammar instances, and the recomputed containment lattice exercised
# through the fuzz oracle's metamorphic checks over every Figure-5
# containment (98 pairs; zero violations expected).
family-smoke: build
	dune exec bin/smem.exe -- corpus \
	  -m pc-g -m 'pc-part(blocks=2)' -m 'pc-part(blocks=4)' -m coh \
	  -m pram -m 'session(ryw,mr)' -m 'session(ryw,mr,mw,wfr)' \
	  -m causal -m causal-obj
	dune exec bin/smem.exe -- check mp \
	  -m 'pc-part(blocks=2)' -m 'pc-part(blocks=3)' -m 'pc-part(partition=x|y)' \
	  -m 'session(ryw,mr)' --certify _build/family-certs
	dune exec bin/smem.exe -- cert verify _build/family-certs/*.cert
	dune exec bin/smem.exe -- custom fig4 --ops writes --mutual none \
	  --order causal | grep -q '^allowed'
	dune exec bin/smem.exe -- custom fig4 --ops writes --mutual coherence \
	  --order causal | grep -q '^forbidden'
	dune exec bin/smem.exe -- fuzz --seed 42 --count 200 --no-machines --stats

# Deterministic simulation of the serving stack: seeded schedules,
# every benign fault enabled, zero invariant violations expected.
# Failing schedules are shrunk and printed as replayable commands.
sim-smoke: build
	dune exec bin/smem.exe -- sim --seed 42 --count 200 --stats

# Formatting needs ocamlformat (version pinned in .ocamlformat).
fmt:
	dune fmt

fmt-check:
	dune build @fmt

# What the CI workflow runs, minus the format job (ocamlformat may not
# be installed locally).
ci: build test examples fuzz-smoke certs serve-smoke serve-load corpus solver family-smoke sim-smoke

clean:
	dune clean
