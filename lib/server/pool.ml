(** Domain-based parallel serving: real OS-thread workers over one shared
    database, code cache and emulated machine.

    This is the production-shaped counterpart of the discrete-event
    scheduler in {!Server} (which remains the deterministic test double).
    Each worker domain owns a {!Qcomp_engine.Engine.domain_view} — a fresh
    {!Qcomp_vm.Emu.context} over the shared memory and code registries — so
    query execution is genuinely concurrent: registers, flags and cycle
    counters are per-domain, while compiled code, the module cache and the
    runtime dispatch table are shared and mutex-guarded.

    Traffic is {e open-loop}: a feeder domain releases each request at its
    arrival timestamp (wall-clock, offset from run start) into a bounded
    multi-tenant {!Admission} queue — arrivals do not wait for free
    workers, exactly like clients that keep sending regardless of server
    load. When the queue is at its [admission_cap] the request is {e shed}
    (rejected and counted) instead of growing server state without bound.
    Workers block on a condition variable while the queue is empty — an
    idle pool burns no host CPU — and dequeue tenant-fair round-robin.

    Every query runs the one lifecycle the simulator runs
    ({!Lifecycle}): the worker performs each transition's lookup or
    compile for real and runs its quanta back to back, and Tiered-mode
    strong-tier compiles run on dedicated background compile domains,
    hot-swapping at the next morsel boundary after the module lands.
    Foreground misses compile on the worker and publish at once. Every
    compile in flight, foreground or background, sits in the run's one
    in-flight table ({!Lifecycle.pending}): a worker missing on a key
    already compiling blocks on the pool's condition variable until it
    lands, so a burst of identical plans compiles once and the rest wait.
    A compile that raises wakes its waiters, and the next one to miss
    compiles anew.

    What stays deterministic under parallelism: per-query rows and
    checksums (results are independent of allocation addresses and domain
    interleaving), the set of compiled modules, and the final live-code
    accounting when the cache does not evict. What becomes wall-clock:
    arrival/start/finish/latency metrics, cache hit/miss counts under
    racing misses, shed decisions under an admission cap (queue occupancy
    depends on worker speed), and in Tiered mode the swap point (and hence
    the tier0/tier1 quanta split and exact cycle counts). Differential
    tests therefore compare the {e multiset} of (name, rows, checksum),
    and use a cap at least the stream length when they need zero sheds.

    Lock ordering: the pool mutex is the outermost; the {!Code_cache}
    mutex and the emulator's layout/registry locks nest inside it (the
    cache also takes its mutex with no pool mutex held — the nesting is
    one-directional, never cache-then-pool). Entries are pinned in the
    same critical section as the lookup, and a compiling query pins its
    entry before publishing it, so an eviction can never free in-flight
    code; the bound instance a query executes is additionally {e claimed}
    ({!Code_cache.force} [~claim:true]) so another query's literal churn
    cannot dispose it mid-execution. *)

open Qcomp_support
open Qcomp_engine
open Lifecycle.Config

let run_requests ?cache db ~domains config requests =
  if domains < 1 then invalid_arg "Pool.run: domains must be positive";
  Lifecycle.validate_config ~driver:"Pool.run" config;
  let cache =
    match cache with
    | Some c -> c
    | None -> Code_cache.create ~capacity:config.cache_capacity
  in
  let mu = Mutex.create () in
  let t0 = Timing.now () in
  let env =
    {
      Lifecycle.config;
      cache;
      now = (fun () -> Timing.now () -. t0);
      locked = (fun f -> Mutex.protect mu f);
    }
  in
  (* work available / feeder finished; workers block here when idle *)
  let work_cv = Condition.create () in
  let feeder_done = ref false in
  let admission =
    Admission.create ?cap:config.admission_cap ~tenants:config.tenants ()
  in
  let sheds = ref [] in
  (* every compile in flight, foreground or background; a worker joining
     one blocks on [landed_cv] until it lands or fails *)
  let pending = Lifecycle.pending () in
  let landed_cv = Condition.create () in
  let join k retry =
    let landed = ref false in
    env.locked (fun () ->
        if
          Lifecycle.join pending k (fun _ ->
              landed := true;
              Condition.broadcast landed_cv)
        then
          while not !landed do
            Condition.wait landed_cv mu
          done);
    retry ()
  in
  let compile_jobs : (Engine.db -> unit) Queue.t = Queue.create () in
  let compile_cv = Condition.create () in
  let compile_closed = ref false in
  let done_q = ref [] in
  let first_error = ref None in
  let record_error exn =
    env.locked (fun () -> if !first_error = None then first_error := Some exn)
  in
  (* the compile runs on a compile domain outside the pool mutex *)
  let submit q j =
    let k = j.Lifecycle.j_key in
    env.locked (fun () ->
        if Lifecycle.await pending k (Lifecycle.upgrade_when_ready env q j)
        then begin
          Queue.push
            (fun view ->
              Lifecycle.publish env pending k
                (Lifecycle.compile env view pending q j))
            compile_jobs;
          Condition.signal compile_cv
        end)
  in
  (* Serve [q] to completion on this worker: its quanta run back to back,
     so the transitions' worker time is simply spent, never scheduled. *)
  let serve q view sched =
    let r =
      match Lifecycle.start env view q with
      | Lifecycle.Run r -> r
      | Lifecycle.Fetch f ->
          Lifecycle.fetch env view pending
            ~publish_after:(fun _ publish -> publish ())
            ~join q f Fun.id
    in
    Option.iter (submit q) r.Lifecycle.background;
    let ex, _ = Lifecycle.begin_exec env view ?sched q r.Lifecycle.entry in
    let rec loop () =
      Option.iter (submit q) (Lifecycle.boundary env view q ex);
      match Lifecycle.step env q ex with
      | `Done m -> env.locked (fun () -> done_q := m :: !done_q)
      | `Ran _ -> loop ()
    in
    loop ()
  in
  (* The feeder releases requests open-loop at their arrival stamps: shed
     or admit at the stamp, independent of worker progress. Sleeping
     between releases (instead of workers polling a pre-filled queue) is
     what lets idle workers block. *)
  let feeder () =
    let ordered =
      List.stable_sort
        (fun a b -> compare a.rq_arrival b.rq_arrival)
        requests
    in
    List.iter
      (fun rq ->
        let dt = t0 +. rq.rq_arrival -. Timing.now () in
        if dt > 0.0 then Unix.sleepf dt;
        let q = Lifecycle.arrive config rq in
        env.locked (fun () ->
            if Lifecycle.offer admission sheds q then Condition.signal work_cv))
      ordered;
    env.locked (fun () ->
        feeder_done := true;
        Condition.broadcast work_cv)
  in
  (* Workers block on [work_cv] while the queue is empty — no mutex
     polling, no spinning: an idle pool burns no host CPU. They exit when
     the feeder has finished and the queue has drained. *)
  (* each domain executes through its own view, whose stack goes back to
     the allocator when the domain retires, so a run leaks no data bytes *)
  let spawn_with_view f =
    Domain.spawn (fun () ->
        let view = Engine.domain_view db in
        Fun.protect
          ~finally:(fun () -> Qcomp_vm.Emu.release_context view.Engine.emu)
          (fun () -> f view))
  in
  let worker view =
    (* intra-query lanes nest inside the worker: its queries fan morsels
       out over [intra] further domains at parallelizable pipeline bodies *)
    let sched =
      if config.intra > 1 then
        Some (Morsel_sched.create ~parallel:true view ~lanes:config.intra)
      else None
    in
    let rec loop () =
      Mutex.lock mu;
      let rec next () =
        match Admission.take admission with
        | Some q ->
            Mutex.unlock mu;
            Some q
        | None ->
            if !feeder_done then begin
              Mutex.unlock mu;
              None
            end
            else begin
              Condition.wait work_cv mu;
              next ()
            end
      in
      match next () with
      | None -> ()
      | Some q ->
          (try serve q view sched
           with exn ->
             record_error exn;
             Lifecycle.fail env q);
          loop ()
    in
    loop ();
    Option.iter Morsel_sched.release sched
  in
  (* Compile domains drain the background queue to empty even after the
     workers finish, so a run leaves the cache in the same warmed state the
     simulator would (every submitted compile lands). *)
  let compile_worker view =
    let rec loop () =
      Mutex.lock mu;
      let rec take () =
        if not (Queue.is_empty compile_jobs) then Some (Queue.pop compile_jobs)
        else if !compile_closed then None
        else begin
          Condition.wait compile_cv mu;
          take ()
        end
      in
      match take () with
      | None -> Mutex.unlock mu
      | Some job ->
          Mutex.unlock mu;
          (try job view with exn -> record_error exn);
          loop ()
    in
    loop ()
  in
  let n_compile = match config.mode with Tiered -> config.compile_slots | _ -> 0 in
  let compilers = List.init n_compile (fun _ -> spawn_with_view compile_worker) in
  let feeder_d = Domain.spawn feeder in
  let workers = List.init domains (fun _ -> spawn_with_view worker) in
  Domain.join feeder_d;
  List.iter Domain.join workers;
  Mutex.protect mu (fun () ->
      compile_closed := true;
      Condition.broadcast compile_cv);
  List.iter Domain.join compilers;
  (match !first_error with Some exn -> raise exn | None -> ());
  let queries = List.rev !done_q in
  Report.assemble db cache
    ~mode:(mode_name config.mode)
    ~makespan:(Timing.now () -. t0)
    ~sheds:(List.rev !sheds)
    ~queue_peak:(Admission.peak admission)
    queries

let run ?cache db ~domains config stream =
  run_requests ?cache db ~domains config
    (Lifecycle.requests_of_stream config stream)
