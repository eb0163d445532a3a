(** Every content key of both bound tiers, in one place.

    Analyses are deterministic in (netlist + ports, image, knobs, power
    context), so results are content-addressed in {!Cache} by digests of
    exactly those inputs plus a version. The two large inputs — the
    elaborated netlist with its ports (about 165 KB marshalled) and the
    power model (about 372 KB) — cost milliseconds to digest, and a
    long-lived process such as [xbound serve] asks for them on every
    request. So {!cpu} and {!poweran} digest each value once and then
    answer from an identity-keyed memo ({!Parallel.identity_memo}).

    {b Identity assumption.} A [Cpu.t] and a [Poweran.t] are never
    mutated after construction: a memoized digest is returned for the
    same physical value, so an in-place edit of one (its netlist arrays,
    its per-gate energy table) would be served a stale key. Both are
    filled in by their constructors ([Cpu.build], [Poweran.create]) and
    only read afterwards.

    Each key is a {!Cache.Key.combine} of plain [Cache.Key.of_value]
    digests, so existing disk caches stay valid as long as the formulas
    below do; the [keys] tests recompute every one from scratch. Bump
    {!analysis_version} (both tiers) or {!static_version} (the static
    tier) when the semantics behind a key change, and old entries become
    misses. *)

type t = Cache.Key.t

(** Version component of the exact tier's ["analysis"] key and of the
    static tier's ["block"] key. *)
val analysis_version : int

(** Version component of every ["block"] key; bump when the static
    tier's block characterization changes. *)
val static_version : int

(** Digest of a CPU's (netlist, ports): [Cache.Key.of_value] of that
    pair, memoized. *)
val cpu : Cpu.t -> t

(** Digest of a power model: [Cache.Key.of_value pa], memoized. *)
val poweran : Poweran.t -> t

(** The ["analysis"] key of a whole exact-tier result: Algorithm 1's
    inputs (the CPU, the image and the exploration knobs) and
    Algorithm 2's (the power context and the loop bound). *)
val analysis :
  ?version:int ->
  revisit_limit:int ->
  max_paths:int ->
  max_cycles_per_path:int ->
  loop_bound:int ->
  Poweran.t ->
  Cpu.t ->
  Isa.Asm.image ->
  t

(** The static tier's ["block"] key: the fragment limits, the CPU, the
    power context, the image words and the block's extent
    [[start, limit)] with its terminator [term] (a [Static.Cfg.term]). *)
val block :
  max_cycles_per_path:int ->
  max_paths:int ->
  Poweran.t ->
  Cpu.t ->
  Isa.Asm.image ->
  start:int ->
  limit:int ->
  term:'term ->
  t
