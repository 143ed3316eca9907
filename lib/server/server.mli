(** Deterministic multi-worker query serving with tiered execution.

    Queries arrive on a seeded arrival process (or an arbitrary timed
    request trace), pass the bounded multi-tenant admission queue —
    arrivals beyond the cap are shed, deterministically, since occupancy
    is a pure function of the virtual-time event history — wait for an
    execution worker, and run morsel-by-morsel through the one query
    lifecycle ({!Lifecycle}) both drivers share. All durations are
    deterministic, so same-seed runs produce byte-identical reports, shed
    sets included. *)

(** The serving configuration: {!Lifecycle.Config}. *)
include module type of struct
  include Lifecycle.Config
end

(** Alias of the one canonical metric record, {!Report.query_metrics};
    read the fields through {!Report}. *)
type query_metrics = Report.query_metrics

(** Alias of the one canonical summary record, {!Report.t}. *)
type report = Report.t

(** Serve [stream] (name, plan pairs in arrival order) against [db].
    [cache] persists across calls when supplied (a warm serving process);
    otherwise each run starts cold with [config.cache_capacity] entries.

    By default this is the deterministic discrete-event run (virtual
    clock, byte-identical reports per seed). [~parallel:domains] serves on
    that many real worker domains instead ({!Pool.run}): per-query rows
    and checksums are identical to the sequential run, but every timing
    metric is wall-clock and scheduling-dependent.

    On either driver a query that raises (a runtime trap, a failed
    compile) releases its pins, claims and execution; the others keep
    serving, and the first error is re-raised when the run ends. *)
val run :
  ?cache:Code_cache.t ->
  ?parallel:int ->
  Qcomp_engine.Engine.db ->
  config ->
  (string * Qcomp_plan.Algebra.t) list ->
  report

(** Serve a timed open-loop request trace (e.g. from
    {!Qcomp_workloads.Trafficgen}): each request is offered to the
    admission queue at its arrival stamp, shed at the cap, dequeued
    tenant-fair. Without [parallel], deterministic discrete-event serving
    — same trace, same config, byte-identical report including the shed
    set. With [~parallel:domains], open-loop wall-clock serving
    ({!Pool.run_requests}): a feeder domain releases requests at their
    stamps, idle workers block on a condition variable. *)
val run_requests :
  ?cache:Code_cache.t ->
  ?parallel:int ->
  Qcomp_engine.Engine.db ->
  config ->
  request list ->
  report

val pp_query : Format.formatter -> query_metrics -> unit
val pp_report : ?per_query:bool -> Format.formatter -> report -> unit

(** Deterministic repeated-query stream: [n] seeded draws over [queries],
    biased towards a hot subset so a cache has something to hit. *)
val make_stream :
  seed:int64 -> n:int -> (string * Qcomp_plan.Algebra.t) list -> (string * Qcomp_plan.Algebra.t) list
