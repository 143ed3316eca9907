(** Deterministic multi-worker query serving with tiered execution.

    A serving run is one discrete-event cascade over {!Sim}'s virtual
    clock: queries arrive on a deterministic (seeded) arrival process —
    or, via {!run_requests}, on an arbitrary pre-generated timed request
    trace — pass the bounded multi-tenant {!Admission} queue (arrivals
    beyond the cap are shed, deterministically: shed decisions depend only
    on virtual-time queue occupancy), wait for one of [workers] execution
    workers, and run morsel-by-morsel through {!Exec}. What happens to a
    query — tier choice, cache lookup, compile or bind, hot-swap, reopt —
    is {!Lifecycle}'s; this driver only turns the worker time each
    transition reports into virtual-time events.

    All durations are deterministic — modelled compile seconds
    ({!Costmodel}) and emulated execution cycles — so two runs with the
    same seed produce byte-identical reports, shed sets included. Host
    wall-clock never enters the virtual timeline. *)

open Qcomp_support
open Qcomp_engine
include Lifecycle.Config

(* The metric and report records have exactly one declaration, in
   {!Report}; both drivers alias it so the shapes can never drift. *)
type query_metrics = Report.query_metrics
type report = Report.t

(** Serve the timed [requests] as one deterministic discrete-event
    cascade: each request is offered to the admission queue at its virtual
    arrival time (shed at the cap — deterministically, since occupancy is
    a pure function of the event history), dequeued tenant-fair, executed
    morsel-by-morsel. A query that raises is failed (its pins, claims and
    execution released) while the cascade keeps serving the others; the
    first error is re-raised once the cascade drains. *)
let run_requests_events ?cache db config requests =
  Lifecycle.validate_config ~driver:"Server.run" config;
  let sim = Sim.create () in
  (* one simulated lane pool for the whole run: quanta never overlap in
     virtual time, so every execution can share the lanes' Emu contexts *)
  let sched =
    if config.intra > 1 then
      Some (Morsel_sched.create ~parallel:false db ~lanes:config.intra)
    else None
  in
  let cache =
    match cache with
    | Some c -> c
    | None -> Code_cache.create ~capacity:config.cache_capacity
  in
  let env =
    {
      Lifecycle.config;
      cache;
      now = (fun () -> Sim.now sim);
      locked = (fun f -> f ());
    }
  in
  let admission =
    Admission.create ?cap:config.admission_cap ~tenants:config.tenants ()
  in
  let sheds = ref [] in
  let free_workers = ref config.workers in
  let free_slots = ref config.compile_slots in
  let compile_jobs = Queue.create () in
  let pending = Lifecycle.pending () in
  let done_q = ref [] in
  let first_error = ref None in
  let note_error exn = if !first_error = None then first_error := Some exn in
  (* the compile pool: bounded slots draining a FIFO of jobs; the host
     compilation runs when the slot is acquired, but the result becomes
     visible (cache insert + waiter callbacks) only at the simulated
     completion event; a failed compile wakes its waiters at once *)
  let rec pump_compiles () =
    while !free_slots > 0 && not (Queue.is_empty compile_jobs) do
      decr free_slots;
      (Queue.pop compile_jobs) ()
    done
  and submit q j =
    let k = j.Lifecycle.j_key in
    if Lifecycle.await pending k (Lifecycle.upgrade_when_ready env q j) then begin
      Queue.push
        (fun () ->
          match Lifecycle.compile env db pending q j with
          | e ->
              Sim.after sim e.Code_cache.ce_compile_s (fun () ->
                  Lifecycle.publish env pending k e;
                  incr free_slots;
                  pump_compiles ())
          | exception exn ->
              note_error exn;
              incr free_slots)
        compile_jobs;
      pump_compiles ()
    end
  in
  let rec dispatch () =
    if !free_workers > 0 then
      match Admission.take admission with
      | None -> ()
      | Some q ->
          decr free_workers;
          guard q (fun () -> admit q);
          dispatch ()
  (* every event of one query runs under its guard: a raise fails that
     query only and frees its worker *)
  and guard q f =
    try f ()
    with exn ->
      note_error exn;
      Lifecycle.fail env q;
      incr free_workers;
      dispatch ()
  and later q s f = Sim.after sim s (fun () -> guard q f)
  and admit q =
    match Lifecycle.start env db q with
    | Lifecycle.Run r -> perform q r
    | Lifecycle.Fetch f ->
        (* a join resumes in the landing compile's event, under [q]'s guard *)
        let join k retry =
          if not (Lifecycle.join pending k (fun _ -> guard q retry)) then
            retry ()
        in
        Lifecycle.fetch env db pending ~publish_after:(Sim.after sim) ~join q f
          (fun r -> guard q (fun () -> perform q r))
  and perform q { Lifecycle.entry; after; background } =
    Option.iter (submit q) background;
    match after with
    | None -> begin_exec q entry
    | Some s -> later q s (fun () -> begin_exec q entry)
  and begin_exec q e =
    match Lifecycle.begin_exec env db ?sched q e with
    | ex, None -> quantum q ex
    | ex, Some bind -> later q bind (fun () -> quantum q ex)
  and quantum q ex =
    Option.iter (submit q) (Lifecycle.boundary env db q ex);
    match Lifecycle.step env q ex with
    | `Done m ->
        done_q := m :: !done_q;
        incr free_workers;
        dispatch ()
    | `Ran dc -> later q (Engine.cycles_to_seconds dc) (fun () -> quantum q ex)
  in
  (* each request is offered at its virtual arrival time: shed-or-admit
     depends only on queue occupancy at that instant, so same trace, same
     cap -> same sheds, byte-identical reports *)
  List.iter
    (fun rq ->
      let q = Lifecycle.arrive config rq in
      Sim.at sim rq.rq_arrival (fun () ->
          if Lifecycle.offer admission sheds q then dispatch ()))
    requests;
  Sim.run sim;
  Option.iter Morsel_sched.release sched;
  Option.iter raise !first_error;
  let queries = List.rev !done_q in
  let makespan =
    List.fold_left (fun a q -> Float.max a q.Report.qm_finish) 0.0 queries
  in
  Report.assemble db cache ~mode:(mode_name config.mode) ~makespan
    ~sheds:(List.rev !sheds)
    ~queue_peak:(Admission.peak admission)
    queries

(** Serve the timed [requests]. Without [parallel], one deterministic
    discrete-event cascade over the virtual clock (sheds included). With
    [~parallel:domains], open-loop wall-clock serving on that many worker
    domains ({!Pool.run_requests}). *)
let run_requests ?cache ?parallel db config requests =
  match parallel with
  | None -> run_requests_events ?cache db config requests
  | Some domains -> Pool.run_requests ?cache db ~domains config requests

let run ?cache ?parallel db config stream =
  run_requests ?cache ?parallel db config
    (Lifecycle.requests_of_stream config stream)

(* ---------------- reporting (shared shape lives in {!Report}) ------- *)

let pp_query = Report.pp_query
let pp_report = Report.pp

(** Deterministic repeated-query stream: [n] draws over [queries] with a
    seeded bias towards a hot subset, so a serving cache has something to
    hit. *)
let make_stream ~seed ~n queries =
  if queries = [] then []
  else begin
    let rng = Rng.create seed in
    let arr = Array.of_list queries in
    let hot = max 1 (Array.length arr / 4) in
    List.init n (fun _ ->
        (* 70% of traffic over the hot quarter of the plan set *)
        if Rng.int rng 10 < 7 then arr.(Rng.int rng hot)
        else arr.(Rng.int rng (Array.length arr)))
  end
