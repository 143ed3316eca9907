(** One query's serving lifecycle, shared by both serving drivers.

    A query moves arrive → admitted → lookup → compile or bind → run
    quantum → swap or barrier → done or failed. This module holds the
    serving configuration, the per-query state and every transition; each
    transition returns what the driver must do next ("charge [s] seconds
    then run", "submit this background compile", "finished with these
    metrics"). {!Server} interprets those results over {!Sim}'s virtual
    clock, {!Pool} over worker domains: one policy, two clocks.

    Shared state is reached only through [env.locked]: the pool passes its
    mutex, the event driver the identity. A query's own fields are
    written only by the worker serving it, except the parked swap (an
    [Atomic.t]) and the done flag (under [env.locked]). *)

open Qcomp_support
open Qcomp_engine

(** The serving configuration, re-exported by {!Server}. *)
module Config = struct
  type mode =
    | Static of Qcomp_backend.Backend.t
        (** one fixed back-end; every query pays its full modelled compile *)
    | Cached
        (** the adaptive back-end fronted by the code cache; a hit skips
            the compile *)
    | Tiered
        (** start on interpreter bytecode, compile the adaptive back-end
            in the background, hot-swap at a morsel boundary *)

  let mode_name = function
    | Static b -> "static:" ^ Qcomp_backend.Backend.name b
    | Cached -> "cached"
    | Tiered -> "tiered"

  type config = {
    workers : int;  (** execution workers *)
    compile_slots : int;  (** background compile pool size (Tiered) *)
    morsel : int;  (** rows per execution quantum *)
    cache_capacity : int;  (** module-cache entries *)
    mode : mode;
    reopt : bool;
        (** Tiered only: pick upgrades from observed cycles-per-row at
            morsel boundaries (including second upgrades) instead of the
            one-shot pre-execution estimate *)
    paramize : bool;
        (** Cached/Tiered: normalize incoming plans into (shape, parameter
            vector) so every literal variant of a template shares one
            cache entry; variants after the first pay a microsecond bind
            instead of a compile. Static mode always stays exact. *)
    mean_gap_s : float;  (** mean inter-arrival gap; 0 = all arrive at t=0 *)
    seed : int64;  (** drives the arrival process *)
    admission_cap : int option;
        (** bound on admission-queue occupancy; arrivals beyond it are
            shed (rejected, counted, reported). [None] = unbounded *)
    tenants : int;  (** tenant FIFOs in the admission queue (fair dequeue) *)
    intra : int;
        (** intra-query lanes: parallelizable pipeline bodies fan each
            quantum's morsels out over this many lanes ({!Morsel_sched}).
            The event driver runs the lanes in turn and advances virtual
            time by the max over lanes, so speedups are deterministic; the
            pool runs them on nested domains. 1 = serial bodies *)
  }

  (** Tiered (static estimate), 4 workers, 2 compile slots, 512-row
      morsels, unbounded admission, 1 tenant, serial bodies. *)
  let default_config =
    {
      workers = 4;
      compile_slots = 2;
      morsel = 512;
      cache_capacity = 64;
      mode = Tiered;
      reopt = false;
      paramize = true;
      mean_gap_s = 0.0005;
      seed = 42L;
      admission_cap = None;
      tenants = 1;
      intra = 1;
    }

  (** One timed request of an open-loop workload: release
      [rq_name]/[rq_plan] at [rq_arrival] seconds after run start, tagged
      with the submitting tenant. Both drivers consume the same request
      list, so a traffic trace replays identically against the
      deterministic scheduler and the wall-clock pool. *)
  type request = {
    rq_name : string;
    rq_plan : Qcomp_plan.Algebra.t;
    rq_arrival : float;  (** seconds after run start *)
    rq_tenant : int;
  }
end

include Config

(** Raise [Invalid_argument] unless every sizing field ([workers],
    [compile_slots], [morsel], [cache_capacity], [tenants], [intra] and,
    when given, [admission_cap]) is positive;
    [driver] prefixes the message. Both drivers validate through here, so
    a bad field fails the same way everywhere — previously [workers]
    raised while [compile_slots] was silently clamped to 1, which masked
    misconfiguration. *)
let validate_config ~driver c =
  let need name v =
    if v < 1 then
      invalid_arg (Printf.sprintf "%s: %s must be positive" driver name)
  in
  need "workers" c.workers;
  need "compile_slots" c.compile_slots;
  need "morsel" c.morsel;
  need "cache_capacity" c.cache_capacity;
  need "tenants" c.tenants;
  need "intra" c.intra;
  match c.admission_cap with
  | Some cap -> need "admission_cap" cap
  | None -> ()

(** Split an incoming plan into its shape (eligible literals replaced by
    {!Qcomp_plan.Expr.Param} holes) and the extracted literal vector in
    the back-ends' binding representation. [Static] mode and
    [paramize = false] keep the plan exact ([[||]] vector); a plan with
    nothing eligible is its own shape with an empty vector. *)
let normalize_query config plan =
  let exact = (plan, ([||] : Qcomp_backend.Artifact.param_value array)) in
  match config.mode with
  | Static _ -> exact
  | Cached | Tiered ->
      if not config.paramize then exact
      else
        let shape, vals = Qcomp_plan.Paramize.normalize plan in
        if Array.length vals = 0 then exact
        else
          ( shape,
            Array.map
              (function
                | Qcomp_plan.Paramize.V_int (_, v) ->
                    Qcomp_backend.Artifact.Pv_int v
                | Qcomp_plan.Paramize.V_str s ->
                    Qcomp_backend.Artifact.Pv_str s)
              vals )

(** The closed-list arrival process as a request list: exponential gaps
    with mean [config.mean_gap_s] drawn from [config.seed] (all at t=0
    when the gap is zero), single tenant. *)
let requests_of_stream config stream =
  let rng = Rng.create config.seed in
  let t = ref 0.0 in
  List.map
    (fun (name, plan) ->
      if config.mean_gap_s > 0.0 then
        t := !t +. (-.config.mean_gap_s *. log (1.0 -. Rng.float rng));
      { rq_name = name; rq_plan = plan; rq_arrival = !t; rq_tenant = 0 })
    stream

(* ---------------- per-query state ---------------- *)

(** One query's state, from arrival to done or failed. *)
type t = {
  q_name : string;
  q_plan : Qcomp_plan.Algebra.t;  (** the shape when parameterized *)
  q_params : Qcomp_backend.Artifact.param_value array;
      (** this query's literal vector; [[||]] for exact plans *)
  q_exact : Qcomp_plan.Algebra.t;
      (** the original plan with literals in place — what rungs that
          cannot bind parameter holes compile (whole-plan fallback) *)
  q_arrival : float;  (** seconds after run start (the request's stamp) *)
  q_tenant : int;
  mutable q_start : float;
  mutable q_first_s : float option;  (** enqueue -> first-row, once known *)
  mutable q_compile_s : float;
  mutable q_cache_hit : bool;
  (* the back-end currently executing the query's quanta, and the full
     tier path in reverse; only the query's own worker writes these *)
  mutable q_cur_tier : string;
  mutable q_tiers : string list;
  (* an upgrade (background compile or parked swap) is in flight; the
     controller makes no new decision until the swap is consumed *)
  mutable q_upgrading : bool;
  (* a finished background compile parks the (tier name, entry) here,
     already pinned for this query, or its failure; the next quantum
     boundary applies it *)
  q_swap : (string * Code_cache.entry, exn) result option Atomic.t;
  mutable q_switch_s : float option;
  mutable q_started_tier0 : bool;  (** first quantum ran interpreter code *)
  (* every cache entry this query touches is pinned until it finishes, so
     eviction can never free code that is still executing or parked for a
     hot-swap *)
  mutable q_pinned : Code_cache.entry list;
  (* bound instances this query claimed via [force ~claim:true]; released
     on finish so literal churn by interleaved queries cannot trim away a
     module mid-execution *)
  mutable q_claims :
    (Code_cache.entry * Qcomp_backend.Backend.compiled_module) list;
  mutable q_exec : Exec.t option;
  mutable q_done : bool;  (** written and read under [env.locked] *)
}

type env = {
  config : config;
  cache : Code_cache.t;
  now : unit -> float;  (** seconds since run start *)
  locked : 'a. (unit -> 'a) -> 'a;
}

(** The query a request becomes on arrival. *)
let arrive config rq =
  let shape, params = normalize_query config rq.rq_plan in
  {
    q_name = rq.rq_name;
    q_plan = shape;
    q_params = params;
    q_exact = rq.rq_plan;
    q_arrival = rq.rq_arrival;
    q_tenant = rq.rq_tenant;
    q_start = 0.0;
    q_first_s = None;
    q_compile_s = 0.0;
    q_cache_hit = false;
    q_cur_tier = "";
    q_tiers = [];
    q_upgrading = false;
    q_swap = Atomic.make None;
    q_switch_s = None;
    q_started_tier0 = false;
    q_pinned = [];
    q_claims = [];
    q_exec = None;
    q_done = false;
  }

(** Offer [q] to the admission queue at its arrival; on a shed, record it
    in [sheds] and return [false]. Callers hold the admission lock. *)
let offer admission sheds q =
  Admission.offer admission ~tenant:q.q_tenant q
  || begin
       sheds :=
         {
           Report.sh_name = q.q_name;
           sh_tenant = q.q_tenant;
           sh_arrival = q.q_arrival;
         }
         :: !sheds;
       false
     end

(* ---------------- compile jobs ---------------- *)

(** A compile of one plan on one rung, keyed in the code cache. *)
type job = {
  j_tier : string;  (** the rung name the compiled module swaps in as *)
  j_backend : Qcomp_backend.Backend.t;
  j_plan : Qcomp_plan.Algebra.t;
  j_params : Qcomp_backend.Artifact.param_value array;
  j_key : Code_cache.key;
}

let job db ~tier ~backend ~plan ~params =
  {
    j_tier = tier;
    j_backend = backend;
    j_plan = plan;
    j_params = params;
    j_key = Code_cache.key db ~backend plan;
  }

(* A rung that cannot bind parameter holes compiles the exact whole plan
   (per-query keyed) instead of the shape. *)
let rung_job db q (tier, backend) =
  if
    Array.length q.q_params > 0
    && not (Qcomp_backend.Backend.supports_params backend)
  then job db ~tier ~backend ~plan:q.q_exact ~params:[||]
  else job db ~tier ~backend ~plan:q.q_plan ~params:q.q_params

(** In-flight compiles: key -> callbacks awaiting the entry, or the
    failure. The one in-flight table of a serving run: a lookup of a key
    already in flight joins it instead of compiling again. *)
type pending =
  ( Code_cache.key,
    ((Code_cache.entry, exn) result -> unit) list ref )
  Hashtbl.t

let pending () : pending = Hashtbl.create 16

(** Wait on [k]'s in-flight compile; [false] if [k] is not in flight
    (it landed or failed already). Callers hold [env.locked]. *)
let join (pending : pending) k on_ready =
  match Hashtbl.find_opt pending k with
  | Some waiters ->
      waiters := on_ready :: !waiters;
      true
  | None -> false

(** Join [k]'s in-flight compile, or start tracking one; [true] iff [k]
    was not yet in flight, so the caller must compile it. Callers hold
    [env.locked]. *)
let await pending k on_ready =
  if join pending k on_ready then false
  else begin
    Hashtbl.replace pending k (ref [ on_ready ]);
    true
  end

(* Take [k] out of flight and wake its waiters in the order they joined.
   Callers hold [env.locked]. *)
let settle (pending : pending) k outcome =
  let waiters =
    match Hashtbl.find_opt pending k with Some w -> !w | None -> []
  in
  Hashtbl.remove pending k;
  List.iter (fun f -> f outcome) (List.rev waiters)

(** A compile landed: insert it into the cache and wake its waiters,
    under [env.locked]. The creation pin keeps the entry from being
    evicted-and-freed before the waiters pin it. *)
let publish env pending k e =
  env.locked (fun () ->
      Code_cache.pin env.cache e;
      Code_cache.insert env.cache k e;
      settle pending k (Ok e);
      Code_cache.unpin env.cache e)

(** Compile [j] for [q] outside the lock, without touching the cache. A
    compile that raises takes [j]'s key out of flight and wakes its
    waiters with the failure before re-raising: a foreground joiner looks
    up again (the first to miss compiles anew), an upgrade waiter parks
    the failure so its query stays on its rung. *)
let compile env db pending q j =
  try
    Code_cache.compile_uncached env.cache db ~backend:j.j_backend
      ~params:j.j_params ~name:q.q_name j.j_plan
  with exn ->
    env.locked (fun () -> settle pending j.j_key (Error exn));
    raise exn

(* Callers hold [env.locked]. *)
let record_pin q e = q.q_pinned <- e :: q.q_pinned

let hold env q e =
  Code_cache.pin env.cache e;
  record_pin q e

(** The waiter for the background compile of [j]: once it lands (or
    fails), it parks as [q]'s next swap. A query that already drained
    must not pin (nobody would unpin) nor park a swap. Runs under
    [env.locked]. *)
let upgrade_when_ready env q j r =
  if not q.q_done then begin
    Result.iter (hold env q) r;
    Atomic.set q.q_swap (Some (Result.map (fun e -> (j.j_tier, e)) r))
  end

(* ---------------- start: lookup, compile or bind ---------------- *)

type charge =
  | Final  (** the module is the query's strong tier; hits cost nothing *)
  | Tier0 of job option
      (** interpreter stopgap while [job] compiles in the background; the
          translate is charged as its own event even when it was a hit *)
  | Full
      (** Static: the full modelled compile, hit or not, with the lookup
          kept out of the hit/miss stats *)

(** A foreground lookup-or-compile the worker must perform. *)
type fetch = { f_job : job; f_charge : charge }

type run = {
  entry : Code_cache.entry;  (** pinned for the query *)
  after : float option;
      (** [None]: execute now. [Some s]: the worker is busy for [s]
          seconds first (a foreground compile, or a tier-0 translate) *)
  background : job option;  (** submit before executing *)
}

type start = Fetch of fetch | Run of run

let fetch_on db q ~tier ~backend charge =
  q.q_cur_tier <- tier;
  q.q_tiers <- [ tier ];
  Fetch
    {
      f_job = job db ~tier ~backend ~plan:q.q_plan ~params:q.q_params;
      f_charge = charge;
    }

let interpreter_fetch db q charge =
  q.q_started_tier0 <- true;
  fetch_on db q ~tier:"interpreter" ~backend:Engine.interpreter charge

(* Lookup that pins in the same critical section; records the pin. *)
let find_pinned env q ?stats k =
  env.locked (fun () ->
      let e = Code_cache.find env.cache ?stats ~pin:true k in
      Option.iter (record_pin q) e;
      e)

let resident q tier e =
  q.q_cache_hit <- true;
  q.q_cur_tier <- tier;
  q.q_tiers <- [ tier ];
  Run { entry = e; after = None; background = None }

(* The adaptive pick; parameterized shapes route to the strongest rung
   that can bind holes, others would recompile per literal vector. *)
let strong_pick db q =
  if Array.length q.q_params > 0 then
    Engine.clamp_param_capable db (fst (Engine.adaptive_backend db q.q_plan))
  else Engine.adaptive_backend db q.q_plan

(** The query leaves the admission queue for a worker: pick its tier per
    [config.mode] and find its first module. A resident module ([Run])
    starts at once; otherwise the driver performs the {!fetch}. *)
let start env db q =
  q.q_start <- env.now ();
  match env.config.mode with
  | Static backend ->
      (* no cache semantics: charge the full modelled compile every time
         (the module itself is memoized host-side, which changes no
         simulated duration — the code is identical) and keep the lookup
         out of the hit/miss stats, where a hit would belie the charge *)
      fetch_on db q ~tier:(Qcomp_backend.Backend.name backend) ~backend Full
  | Cached ->
      let tier, backend = strong_pick db q in
      fetch_on db q ~tier ~backend Final
  | Tiered when env.config.reopt -> (
      (* observation-driven: no pre-execution estimate. Start on the
         strongest already-resident rung (free), else on interpreter
         bytecode; the controller upgrades from observed cycles. The
         ladder probe is stat-free — scanning every rung per query would
         otherwise drown the hit-rate in bookkeeping misses. *)
      let found =
        List.find_map
          (fun ((tier, _) as rung) ->
            if String.equal tier "interpreter" then None
            else
              Option.map
                (fun e -> (tier, e))
                (find_pinned env q ~stats:false (rung_job db q rung).j_key))
          (List.rev (Engine.tier_ladder db))
      in
      match found with
      | Some (tier, e) -> resident q tier e
      | None -> interpreter_fetch db q (Tier0 None))
  | Tiered -> (
      let tier, backend = strong_pick db q in
      if tier = "interpreter" then
        (* nothing stronger to tier to: serve straight from bytecode *)
        interpreter_fetch db q Final
      else
        let j = job db ~tier ~backend ~plan:q.q_plan ~params:q.q_params in
        match find_pinned env q j.j_key with
        | Some e -> resident q tier e
        | None ->
            (* tier 0 now, strong tier in the background; the swap names
               the rung after the compiled back-end *)
            interpreter_fetch db q
              (Tier0 (Some { j with j_tier = j.j_key.Code_cache.ck_backend })))

let fetched q f (e, hit) =
  let c = e.Code_cache.ce_compile_s in
  match f.f_charge with
  | Full ->
      q.q_compile_s <- c;
      { entry = e; after = Some c; background = None }
  | Final ->
      q.q_cache_hit <- hit;
      if hit then { entry = e; after = None; background = None }
      else begin
        q.q_compile_s <- c;
        { entry = e; after = Some c; background = None }
      end
  | Tier0 background ->
      let c = if hit then 0.0 else c in
      q.q_compile_s <- c;
      { entry = e; after = Some c; background }

(** The lookup-or-compile: a pinned lookup, else join the key's compile
    in {!pending} and look up again once it lands or fails, else register
    the key, compile outside the lock and publish. The result is [k]
    applied to the {!run}. The driver supplies its clock:
    [publish_after s p] makes a compile of [s] modelled seconds visible
    ([Sim.after] on the event driver, at once on the pool), and
    [join key retry] waits on [key]'s compile before calling [retry] (a
    continuation on the event driver, a blocking wait on the pool).
    Static ([Full]) publishes at once on both drivers: its full charge,
    counted from its own start, outlasts any compile already in flight.
    [k] runs before the publish is handed to [publish_after], so on the
    event driver the query's own events come first. *)
let rec fetch env db pending ~publish_after ~join q f k =
  let key = f.f_job.j_key in
  let found =
    env.locked (fun () ->
        let stats = match f.f_charge with Full -> false | _ -> true in
        match Code_cache.find env.cache ~stats ~pin:true key with
        | Some e ->
            record_pin q e;
            `Hit e
        | None when Hashtbl.mem pending key -> `Join
        | None ->
            Hashtbl.replace pending key (ref []);
            `Compile)
  in
  match found with
  | `Hit e -> k (fetched q f (e, true))
  | `Join ->
      join key (fun () -> fetch env db pending ~publish_after ~join q f k)
  | `Compile ->
      let e = compile env db pending q f.f_job in
      env.locked (fun () -> hold env q e);
      let r = k (fetched q f (e, false)) in
      let publish_after =
        match f.f_charge with Full -> fun _ p -> p () | _ -> publish_after
      in
      publish_after e.Code_cache.ce_compile_s (fun () ->
          publish env pending key e);
      r

(* Force (and claim) [e]'s instance for this query's literal vector;
   returns the module and the bind charge a fresh parameter bind costs. *)
let claim env db q e =
  let cq, cm, fresh =
    Code_cache.force env.cache db ~params:q.q_params ~claim:true e
  in
  q.q_claims <- (e, cm) :: q.q_claims;
  if fresh && Array.length q.q_params > 0 then begin
    (* priced near-free next to any back-end compile *)
    q.q_compile_s <- q.q_compile_s +. Costmodel.bind_seconds;
    (cq, cm, Some Costmodel.bind_seconds)
  end
  else (cq, cm, None)

(** Claim the entry's instance for the query's literal vector and start
    executing it; [Some s] is the fresh parameter bind the worker pays
    before the first quantum. *)
let begin_exec env db ?sched q e =
  let cq, cm, bind = claim env db q e in
  let ex = Exec.start ?sched db cq cm in
  q.q_exec <- Some ex;
  (ex, bind)

(* ---------------- quantum boundaries ---------------- *)

(* The observation-driven tier controller, consulted at each morsel
   boundary in reopt mode (a swap applied just before leaves the fresh
   tier with no observation, so it sits out one quantum). One upgrade in
   flight at a time: a second upgrade (e.g. directemit -> cranelift) only
   triggers once the first tier's own observed rate still leaves a paying
   candidate. An already-resident stronger module costs nothing to adopt,
   so it is priced at zero and parks immediately. *)
let consider_upgrade env db q ex =
  if q.q_upgrading || Exec.finished ex then None
  else
    match Exec.observed_cpr ex with
    | None -> None
    | Some cpr -> (
        let rows_remaining = Exec.rows_remaining ex in
        if rows_remaining <= 0 then None
        else
          (* observed work justifies real compile time, so rungs without
             parameter holes stay reachable through their whole-plan
             fallback *)
          let cands =
            List.map
              (fun ((tier, _) as rung) ->
                let j = rung_job db q rung in
                let compile_s =
                  match Code_cache.find env.cache ~stats:false j.j_key with
                  | Some _ -> 0.0
                  | None ->
                      Costmodel.compile_seconds ~backend:tier
                        (Exec.ir_module ex)
                in
                (j, compile_s))
              (Engine.stronger_than db q.q_cur_tier)
          in
          match
            Costmodel.best_upgrade ~cur:q.q_cur_tier ~cpr ~rows_remaining
              (List.map (fun (j, c) -> (j.j_tier, c)) cands)
          with
          | None -> None
          | Some (tier, _) -> (
              let j, _ = List.find (fun (j, _) -> j.j_tier = tier) cands in
              q.q_upgrading <- true;
              match find_pinned env q j.j_key with
              | Some e ->
                  Atomic.set q.q_swap (Some (Ok (tier, e)));
                  None
              | None -> Some j))

(** A quantum boundary (the previous quantum just completed): record
    first-row latency after the first, apply a parked swap, and in reopt
    mode consult the tier controller. Returns the background compile to
    submit before the next quantum runs. *)
let boundary env db q ex =
  if q.q_first_s = None && Exec.quanta ex > 0 then
    q.q_first_s <- Some (env.now () -. q.q_arrival);
  (match Atomic.exchange q.q_swap None with
  | Some (Ok (tier, e)) when not (Exec.finished ex) ->
      let _, cm, _ = claim env db q e in
      Exec.swap ex cm;
      q.q_cur_tier <- tier;
      q.q_tiers <- tier :: q.q_tiers;
      q.q_upgrading <- false;
      if q.q_switch_s = None then
        q.q_switch_s <- Some (env.now () -. q.q_start)
  | Some (Error _) ->
      (* the upgrade's compile failed: finish on the current rung *)
      q.q_upgrading <- false
  | _ -> ());
  if env.config.reopt && env.config.mode = Tiered then
    consider_upgrade env db q ex
  else None

(* ---------------- done or failed ---------------- *)

(* Claims before pins: a release may dispose an over-cap instance, which
   must happen while its entry is still live. *)
let release env q =
  env.locked (fun () ->
      q.q_done <- true;
      List.iter (fun (e, cm) -> Code_cache.release env.cache e cm) q.q_claims;
      q.q_claims <- [];
      List.iter (Code_cache.unpin env.cache) q.q_pinned;
      q.q_pinned <- [])

(** The query raised: release its claims, then its pins, then dispose
    its execution. *)
let fail env q =
  release env q;
  Option.iter Exec.dispose q.q_exec

let finish env q ex =
  release env q;
  let r = Exec.result ex in
  (* rows are materialized; recycle the execution's linear-memory blocks
     (state block, tuple buffers, hash-table arenas) *)
  Exec.dispose ex;
  let tier0, tier1 =
    match Exec.swapped_at ex with
    | Some at -> (at, Exec.quanta ex - at)
    | None ->
        if q.q_started_tier0 then (Exec.quanta ex, 0) else (0, Exec.quanta ex)
  in
  let finish = env.now () in
  {
    Report.qm_name = q.q_name;
    qm_fp = Fingerprint.plan q.q_plan;
    qm_backend = q.q_cur_tier;
    qm_arrival = q.q_arrival;
    qm_start = q.q_start;
    qm_finish = finish;
    qm_compile_s = q.q_compile_s;
    qm_cache_hit = q.q_cache_hit;
    qm_switch_s = q.q_switch_s;
    qm_quanta_tier0 = tier0;
    qm_quanta_tier1 = tier1;
    qm_tiers = List.rev q.q_tiers;
    qm_exec_cycles = r.Engine.exec_cycles;
    qm_rows = r.Engine.output_count;
    qm_checksum =
      (* with intra-query lanes the barrier merge emits rows in lane
         order, not sequential insert order: checksum the sorted multiset
         so the sum is lane-count-invariant *)
      (if env.config.intra > 1 then
         Engine.checksum (List.sort compare r.Engine.rows)
       else Engine.checksum r.Engine.rows);
    qm_tenant = q.q_tenant;
    qm_first_s =
      (match q.q_first_s with Some s -> s | None -> finish -. q.q_arrival);
  }

(** Run one quantum: [`Ran c] ([c] wall-clock cycles) or [`Done m] once
    the query drained — its claims and pins released, its execution
    disposed, [m] its metrics. *)
let step env q ex =
  match Exec.step ex ~morsel:env.config.morsel with
  | `Done -> `Done (finish env q ex)
  | `Ran dc -> `Ran dc
