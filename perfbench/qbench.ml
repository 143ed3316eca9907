(* The repository benchmark: per-back-end compile+execute (the paper's
   Table III and Fig. 7 criterion) and deterministic tiered serving,
   measured end to end and per layer.

   Usage:
     qbench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Every layer is measured from outside, by timing this program's own calls
   into the layer's public function:
     codegen   Engine.plan_to_ir
     backend   Backend.compile_artifact (compile_module for the interpreter)
     link      Backend.link_artifact
     vm        Engine.execute (runtime counters from Htable.stats)
     morsel    Exec.start ?sched with Morsel_sched.create ~lanes
     serve     Server.run_requests on the discrete-event driver
   Everything runs sequentially on one domain; the event driver simulates
   its workers, compile slots and lanes in virtual time.

   With --trace 0 the last stdout line carries the end-to-end metrics; with
   --trace 1 it carries the per-layer metrics, and the spans recorded around
   the calls above are written as Chrome trace-event JSON to perfbench/out/.
   The line before it is a detail object tagging every metric as "exact"
   (cycles, counts, virtual-time seconds: bit-for-bit repeatable for a seed)
   or "wall" (host wall-clock or process memory). README.md in this directory states
   why each workload exists and which end-to-end metric each layer metric
   should move. *)

open Qcomp_support
open Qcomp_engine
module Backend = Qcomp_backend.Backend
module Codegen = Qcomp_codegen.Codegen
module Spec = Qcomp_workloads.Spec
module Trafficgen = Qcomp_workloads.Trafficgen
module Paramgen = Qcomp_workloads.Paramgen
module Htable = Qcomp_runtime.Htable
module Server = Qcomp_server.Server
module Report = Qcomp_server.Report
module Exec = Qcomp_server.Exec
module Morsel_sched = Qcomp_server.Morsel_sched
module Costmodel = Qcomp_server.Costmodel

(* ---------------- workloads ---------------- *)

type data = Tpch | Tpcds

type pool =
  | Catalog_order
      (** the data set's queries in catalog order, round after round: a
          fixed mix, so serving metrics move only with arrivals and data *)
  | Zipf_queries  (** the data set's queries, Zipf popularity *)
  | Zipf_literals  (** Paramgen templates with Zipf-drawn literals *)

type workload = {
  w_name : string;
  w_data : data;
  w_sf : int;
  w_offline : Spec.query list -> Spec.query list;
      (** the offline query set, chosen from the data set's queries *)
  w_lanes_every : int;  (** every k-th offline query also runs at 1/2/4 lanes *)
  w_pool : pool;
  w_requests : int;  (** main serving trace length *)
  w_ladder_requests : int;  (** trace length of each goodput-ladder rung *)
  w_ladder_base_qps : float;  (** rung 0 of the goodput ladder *)
  w_limit_s : float;  (** p99 latency limit of the goodput ladder *)
  w_cache : int;  (** code-cache capacity in entries *)
}

let all q = q

let take n l = List.filteri (fun i _ -> i < n) l

let workloads =
  [
    {
      w_name = "tpcds-compile";
      w_data = Tpcds;
      w_sf = 1;
      w_offline = all;
      w_lanes_every = 8;
      w_pool = Catalog_order;
      w_requests = 103;
      w_ladder_requests = 103;
      w_ladder_base_qps = 2500.0;
      w_limit_s = 0.002;
      w_cache = 64;
    };
    {
      w_name = "tpch-exec";
      w_data = Tpch;
      w_sf = 6;
      w_offline = all;
      w_lanes_every = 3;
      w_pool = Catalog_order;
      w_requests = 66;
      w_ladder_requests = 110;
      w_ladder_base_qps = 2000.0;
      w_limit_s = 0.004;
      w_cache = 64;
    };
    {
      w_name = "serve-zipf";
      w_data = Tpch;
      w_sf = 1;
      w_offline = (fun _ -> List.map (fun i -> Paramgen.variant i 0)
                       (List.init Paramgen.shape_count Fun.id));
      w_lanes_every = 1;
      w_pool = Zipf_literals;
      w_requests = 2000;
      w_ladder_requests = 2000;
      w_ladder_base_qps = 20000.0;
      w_limit_s = 0.0005;
      w_cache = 64;
    };
    {
      w_name = "serve-tpcds";
      w_data = Tpcds;
      w_sf = 1;
      w_offline = take 12;
      w_lanes_every = 3;
      w_pool = Zipf_queries;
      w_requests = 1500;
      w_ladder_requests = 400;
      w_ladder_base_qps = 5000.0;
      w_limit_s = 0.003;
      w_cache = 32;
    };
  ]

let queries_of = function
  | Tpch -> Qcomp_workloads.Tpch.queries
  | Tpcds -> Qcomp_workloads.Tpcds.queries

let tables_of data sf =
  match data with
  | Tpch -> Qcomp_workloads.Tpch.tables sf
  | Tpcds -> Qcomp_workloads.Tpcds.tables sf

(* Derive independent 64-bit streams from the workload seed, one per use
   (table data, literals, arrivals), so no two draw the same numbers. *)
let derive seed salt =
  let z = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int salt)) in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* ---------------- spans ---------------- *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_layer : string;
  sp_trace : string;  (** query name (trace ID); "" for run-level spans *)
  sp_parent : int;  (** 0 at the root *)
  sp_t0 : float;
  mutable sp_t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 0

(* [timed ~layer ~name ~trace f] is [(f (), wall seconds of f)]; while
   tracing is on it also records a span with the same two clock reads. *)
let timed ~layer ~name ?(trace = "") f =
  if not !tracing then begin
    let t0 = Timing.now () in
    let r = f () in
    (r, Timing.now () -. t0)
  end
  else begin
    incr next_span;
    let parent = match !open_spans with s :: _ -> s.sp_id | [] -> 0 in
    let trace =
      if trace <> "" then trace
      else match !open_spans with s :: _ -> s.sp_trace | [] -> ""
    in
    let s =
      { sp_id = !next_span; sp_name = name; sp_layer = layer; sp_trace = trace;
        sp_parent = parent; sp_t0 = Timing.now (); sp_t1 = 0.0 }
    in
    open_spans := s :: !open_spans;
    let finish () =
      s.sp_t1 <- Timing.now ();
      open_spans := List.tl !open_spans;
      spans := s :: !spans
    in
    let r = try f () with e -> finish (); raise e in
    finish ();
    (r, s.sp_t1 -. s.sp_t0)
  end

let span ~layer ~name ?trace f = fst (timed ~layer ~name ?trace f)

(* Self time per layer over [spans]: a span's duration minus its children's. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.sp_t1 -. s.sp_t0 in
      Hashtbl.replace child s.sp_parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.sp_t1 -. s.sp_t0
        -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_id)
      in
      Hashtbl.replace by_layer s.sp_layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.sp_layer)))
    spans;
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer)

(* Self time per layer of the spans under the span that closed last. That
   span heads [spans]; ids are handed out at start and spans are pushed at
   end, so its descendants are exactly the run of spans after it with a
   larger id. *)
let self_under_last () =
  match !spans with
  | [] -> self_times []
  | top :: rest ->
      let rec under acc = function
        | s :: r when s.sp_id > top.sp_id -> under (s :: acc) r
        | _ -> acc
      in
      self_times (under [] rest)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open directly. *)
let write_chrome_trace path =
  let oc = open_out path in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.sp_t0) infinity !spans
  in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"trace\":%s}}"
        (if i = 0 then "" else ",\n")
        (json_string s.sp_name) (json_string s.sp_layer)
        ((s.sp_t0 -. origin) *. 1e6)
        ((s.sp_t1 -. s.sp_t0) *. 1e6)
        s.sp_id s.sp_parent (json_string s.sp_trace))
    (List.sort (fun a b -> compare a.sp_id b.sp_id) !spans);
  output_string oc "\n]}\n";
  close_out oc

(* ---------------- metrics ---------------- *)

type kind = Exact | Wall

let metrics : (string * float * string * kind) list ref = ref []
let emit ?(kind = Exact) name unit value = metrics := (name, value, unit, kind) :: !metrics
let emit_int name unit v = emit name unit (float_of_int v)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Process memory high-water mark (VmHWM), in MiB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> go ()
      | exception End_of_file -> 0.0
    in
    let v = go () in
    close_in ic;
    v
  with Sys_error _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* ---------------- the correctness oracle ---------------- *)

let attempted = ref 0
let mismatches = ref 0
let sheds = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr mismatches;
    Printf.printf "MISMATCH %s\n%!" what
  end

let sorted_checksum rows = Engine.checksum (List.sort compare rows)

(* Interpreter reference checksums (order-sensitive, sorted multiset) per
   query name, filled by the offline pass and on demand for served plans
   the offline set does not contain. *)
let reference : (string, int64 * int64) Hashtbl.t = Hashtbl.create 256

let reference_of db name plan =
  match Hashtbl.find_opt reference name with
  | Some r -> r
  | None ->
      let timing = Timing.create ~enabled:false () in
      let r =
        span ~layer:"oracle" ~name:"oracle.interpreter" ~trace:name (fun () ->
            Engine.with_compiled db ~backend:Engine.interpreter ~timing ~name plan
              (fun cq cm _ ->
                let rows = (Engine.execute db cq cm).Engine.rows in
                (Engine.checksum rows, sorted_checksum rows)))
      in
      Hashtbl.replace reference name r;
      r

(* ---------------- set-up ---------------- *)

let mem_size = 32 * 1024 * 1024

(* Data generation, runtime install and stencil prewarm. *)
let setup w ~seed =
  let db = Engine.create_db ~mem_size Qcomp_vm.Target.x64 in
  List.iter
    (fun (spec : Spec.table_spec) ->
      ignore
        (Engine.add_table db spec.Spec.schema ~rows:(spec.Spec.rows_at w.w_sf)
           ~seed:(Int64.logxor spec.Spec.seed (derive seed 1))
           spec.Spec.gens))
    (tables_of w.w_data w.w_sf);
  db

(* The seconds of one cold set-up, made in a child forked before this
   process sets anything up. Only a process's first set-up is cold: the
   stencil library and other runtime tables are memoized process-wide. *)
let cold_setup_seconds w ~seed =
  let rd, wr = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let _, t = Timing.time (fun () -> setup w ~seed) in
      let oc = Unix.out_channel_of_descr wr in
      Printf.fprintf oc "%h" t;
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let s = In_channel.input_all ic in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "set-up child failed");
      float_of_string s

(* ---------------- layers ---------------- *)

let backends db = Engine.all_backends db
let bname = Backend.name

(* Link records its own Timing scopes; they go here, so that a back-end's
   [timing] holds only the phases of artifact generation. *)
let link_timing = Timing.create ~enabled:false ()

(* One compile through the public layer functions: artifact generation and
   link for relocatable back-ends, translate for the interpreter. Returns
   the module and the (backend, link) wall seconds. *)
let compile db b ~timing (cq : Codegen.compiled) ~trace =
  let n = bname b in
  match Backend.compile_artifact b with
  | Some gen ->
      let art, t_art =
        timed ~layer:"backend" ~name:("backend." ^ n) ~trace (fun () ->
            gen ~timing ~target:db.Engine.target ~registry:db.Engine.registry
              cq.Codegen.modul)
      in
      let cm, t_link =
        timed ~layer:"link" ~name:("link." ^ n) ~trace (fun () ->
            Backend.link_artifact ~timing:link_timing ~emu:db.Engine.emu
              ~registry:db.Engine.registry ~unwind:db.Engine.unwind art)
      in
      (cm, t_art, t_link)
  | None ->
      let cm, t =
        timed ~layer:"backend" ~name:("backend." ^ n) ~trace (fun () ->
            Backend.compile_module b ~timing ~emu:db.Engine.emu
              ~registry:db.Engine.registry ~unwind:db.Engine.unwind
              cq.Codegen.modul)
      in
      (cm, t, 0.0)

let codegen db (q : Spec.query) =
  timed ~layer:"codegen" ~name:"codegen" ~trace:q.Spec.q_name (fun () ->
      Engine.plan_to_ir db ~name:q.Spec.q_name q.Spec.q_plan)

(* Per back-end results of the offline pass. *)
type offline = {
  o_exec_cycles : int;
  o_exec_insts : int;
  o_code_bytes : int;
}

(* The offline pass: every query of the set on every back-end, compiled and
   executed once; checksums must equal the interpreter's. *)
let offline_pass db queries =
  let timing = Timing.create ~enabled:false () in
  let ir_insts = ref 0 and functions = ref 0 in
  List.iter
    (fun q ->
      let cq, _ = codegen db q in
      let f, i = Costmodel.module_size cq.Codegen.modul in
      functions := !functions + f;
      ir_insts := !ir_insts + i)
    queries;
  emit_int "codegen.functions" "count" !functions;
  emit_int "codegen.ir_insts" "count" !ir_insts;
  Htable.reset_stats ();
  let per_backend =
    List.map
      (fun b ->
        let cyc = ref 0 and insts = ref 0 and bytes = ref 0 in
        List.iter
          (fun (q : Spec.query) ->
            let name = q.Spec.q_name in
            span ~layer:"bench" ~name:("query." ^ bname b) ~trace:name (fun () ->
                let cq, _ = codegen db q in
                let cm, _, _ = compile db b ~timing cq ~trace:name in
                let r =
                  span ~layer:"vm" ~name:("vm." ^ bname b) (fun () ->
                      Engine.execute db cq cm)
                in
                Engine.dispose_module db cm;
                cyc := !cyc + r.Engine.exec_cycles;
                insts := !insts + r.Engine.exec_instructions;
                bytes := !bytes + cm.Backend.cm_code_size;
                let sum = Engine.checksum r.Engine.rows in
                if bname b = "interpreter" then
                  Hashtbl.replace reference name (sum, sorted_checksum r.Engine.rows)
                else
                  check
                    (Printf.sprintf "%s/%s offline checksum" (bname b) name)
                    (match Hashtbl.find_opt reference name with
                    | Some (s, _) -> Int64.equal s sum
                    | None -> false)))
          queries;
        ( bname b,
          { o_exec_cycles = !cyc; o_exec_insts = !insts; o_code_bytes = !bytes } ))
      (* the interpreter first: it is the reference *)
      (Engine.interpreter
      :: List.filter (fun b -> bname b <> "interpreter") (backends db))
  in
  let st = Htable.stats () in
  emit_int "runtime.ht.probes" "count" st.Htable.probes;
  emit "runtime.ht.cycles_per_probe" "cycles"
    (if st.Htable.probes = 0 then 0.0
     else float_of_int st.Htable.probe_cycles /. float_of_int st.Htable.probes);
  emit "runtime.ht.tag_hit_frac" "frac" (frac st.Htable.tag_hits st.Htable.tag_words);
  emit "runtime.ht.direct_frac" "frac" (frac st.Htable.direct_probes st.Htable.probes);
  emit_int "runtime.ht.grows" "count" st.Htable.grows;
  List.iter
    (fun (n, o) ->
      emit_int ("vm." ^ n ^ ".exec_cycles") "cycles" o.o_exec_cycles;
      emit_int ("vm." ^ n ^ ".exec_instructions") "count" o.o_exec_insts;
      emit_int ("backend." ^ n ^ ".code_bytes") "bytes" o.o_code_bytes)
    per_backend;
  per_backend

(* The morsel lanes: every k-th query on directemit at 1, 2 and 4 lanes; each
   lane run must give the interpreter's sorted multiset. *)
let lanes_pass db queries ~every =
  let timing = Timing.create ~enabled:false () in
  let lane_counts = [ 1; 2; 4 ] in
  let scheds =
    List.map
      (fun lanes ->
        (lanes, if lanes > 1 then Some (Morsel_sched.create db ~lanes) else None))
      lane_counts
  in
  let wall = Array.make 3 0 and work4 = ref 0 in
  List.iteri
    (fun i (q : Spec.query) ->
      if i mod every = 0 then begin
        let name = q.Spec.q_name in
        let _, expect = reference_of db name q.Spec.q_plan in
        let cq, _ = codegen db q in
        let cm, _, _ = compile db Engine.directemit ~timing cq ~trace:name in
        List.iteri
          (fun k (lanes, sched) ->
            let ex =
              span ~layer:"morsel" ~name:(Printf.sprintf "morsel.lanes%d" lanes)
                ~trace:name (fun () ->
                  let ex = Exec.start ?sched db cq cm in
                  Exec.run_to_end ex ~morsel:512;
                  ex)
            in
            let rows = (Exec.result ex).Engine.rows in
            wall.(k) <- wall.(k) + Exec.wall_cycles ex;
            if lanes = 4 then work4 := !work4 + Exec.cycles ex;
            Exec.dispose ex;
            check
              (Printf.sprintf "%s lanes=%d multiset" name lanes)
              (Int64.equal (sorted_checksum rows) expect))
          scheds;
        Engine.dispose_module db cm
      end)
    queries;
  emit_int "morsel.wall_cycles.lanes1" "cycles" wall.(0);
  emit_int "morsel.wall_cycles.lanes2" "cycles" wall.(1);
  emit_int "morsel.wall_cycles.lanes4" "cycles" wall.(2);
  emit_int "morsel.work_cycles.lanes4" "cycles" !work4

(* ---------------- serving ---------------- *)

let serve_config w ~seed =
  {
    Server.default_config with
    Server.mode = Server.Tiered;
    reopt = true;
    intra = 2;
    cache_capacity = w.w_cache;
    admission_cap = Some 64;
    seed = derive seed 2;
  }

let trace_requests w ~seed ~arrival ~n =
  let pair (q : Spec.query) = (q.Spec.q_name, q.Spec.q_plan) in
  let arrivals pool =
    Trafficgen.stream ~arrival ~seed:(derive seed 3) ~n (List.map pair pool)
  in
  let req (name, plan) (_, _, at, tenant) =
    { Server.rq_name = name; rq_plan = plan; rq_arrival = at; rq_tenant = tenant }
  in
  match w.w_pool with
  | Zipf_queries ->
      List.map (fun ((n, p, _, _) as a) -> req (n, p) a) (arrivals (queries_of w.w_data))
  | Catalog_order ->
      let pool = Array.of_list (queries_of w.w_data) in
      let plans = List.init n (fun i -> pool.(i mod Array.length pool)) in
      List.map2 (fun q a -> req (pair q) a) plans (arrivals plans)
  | Zipf_literals ->
      let lits = Paramgen.stream ~seed:(derive seed 4) ~n in
      List.map2 (fun q a -> req (pair q) a) lits (arrivals lits)

(* A Poisson trace at [qps] whose arrival stamps are rescaled so that its
   realized mean rate is exactly [qps]: a short trace's own rate is off by
   about 1/sqrt(n), which would otherwise move goodput by as much from seed
   to seed. The seed still moves the arrival pattern. *)
let poisson_requests w ~seed ~qps ~n =
  let reqs = trace_requests w ~seed ~arrival:(Trafficgen.Poisson { qps }) ~n in
  let last = List.fold_left (fun a r -> Float.max a r.Server.rq_arrival) 0.0 reqs in
  let k = if last > 0.0 then float_of_int n /. qps /. last else 1.0 in
  List.map (fun r -> { r with Server.rq_arrival = r.Server.rq_arrival *. k }) reqs

(* The main trace: bursts of 6 requests arriving within microseconds of each
   other, then 20 ms of silence, long enough for the server to drain. With 4
   workers, 2 requests of every burst wait for a worker, so the latency tails
   measure a wait whose length the mix and the data set, while the median
   measures service. Under a light Poisson load the tails would instead be
   either constant (nobody waits) or set by the rare request that did. *)
let burst_requests w ~seed ~n =
  trace_requests w ~seed ~n
    ~arrival:(Trafficgen.Burst { qps = 1e6; burst = 6; idle_s = 0.02 })

(* Serve a trace; every served checksum must equal the offline interpreter
   checksum of the same plan (sorted multiset: the server runs intra lanes). *)
let serve db w ~seed reqs =
  let cfg = serve_config w ~seed in
  let report, host_s =
    timed ~layer:"serve" ~name:"serve.run_requests" (fun () ->
        Server.run_requests db cfg reqs)
  in
  let plans = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace plans r.Server.rq_name r.Server.rq_plan) reqs;
  List.iter
    (fun (q : Report.query_metrics) ->
      let _, expect = reference_of db q.Report.qm_name (Hashtbl.find plans q.Report.qm_name) in
      check (q.Report.qm_name ^ " served checksum") (Int64.equal expect q.Report.qm_checksum))
    report.Report.r_queries;
  (report, host_s)

let serve_main db w ~seed =
  let reqs = burst_requests w ~seed ~n:w.w_requests in
  let r, host_s = serve db w ~seed reqs in
  let shed = List.length r.Report.r_sheds in
  sheds := !sheds + shed;
  attempted := !attempted + shed;
  List.iteri
    (fun i (q : Report.query_metrics) ->
      if i < 5 then
        Printf.printf "first-row tail: %s %.6f s latency %.6f s tiers %s\n" q.Report.qm_name
          q.Report.qm_first_s (Report.qm_latency q) (String.concat ">" q.Report.qm_tiers))
    (List.sort
       (fun (a : Report.query_metrics) b -> compare b.Report.qm_first_s a.Report.qm_first_s)
       r.Report.r_queries);
  let c = r.Report.r_cache in
  emit "latency_p50_s" "s" r.Report.r_p50_latency;
  emit "latency_p99_s" "s" r.Report.r_p99_latency;
  emit "first_row_p99_s" "s" r.Report.r_p99_first_row;
  emit "code_cache.hit_rate" "frac" (frac c.Qcomp_server.Lru.hits (c.Qcomp_server.Lru.hits + c.Qcomp_server.Lru.misses));
  emit_int "code_cache.misses" "count" c.Qcomp_server.Lru.misses;
  emit_int "code_cache.evictions" "count" c.Qcomp_server.Lru.evictions;
  emit_int "code_cache.shape_hits" "count" r.Report.r_shape_hits;
  emit_int "code_cache.binds" "count" r.Report.r_binds;
  emit_int "admission.queue_peak" "count" r.Report.r_queue_peak;
  emit_int "admission.shed" "count" shed;
  emit_int "exec.switchovers" "count" r.Report.r_switchovers;
  emit_int "exec.upgrades" "count"
    (List.fold_left
       (fun a q -> a + max 0 (List.length q.Report.qm_tiers - 1))
       0 r.Report.r_queries);
  emit "server.compile_stall_s" "s" r.Report.r_compile_stall_s;
  emit_int "server.peak_code_bytes" "bytes" r.Report.r_peak_code_bytes;
  emit_int "server.peak_data_bytes" "bytes" r.Report.r_peak_data_bytes;
  emit ~kind:Wall "server.host_s" "s" host_s;
  List.length r.Report.r_queries

(* Goodput: a fixed geometric ladder of offered rates (4 rungs per octave
   over four octaves from the workload's base rate), searched by bisection
   for the highest rung whose p99 stays under the workload's limit with
   nothing shed; if the next rung failed on p99 with nothing shed, the
   reported rate interpolates (log-log in p99) between the two, so that
   seeds straddling a rung boundary do not jump a whole rung. *)
let goodput db w ~seed =
  let rungs = 16 in
  let rate i = w.w_ladder_base_qps *. (2.0 ** (float_of_int i /. 4.0)) in
  let runs = Hashtbl.create 8 in
  let probe i =
    match Hashtbl.find_opt runs i with
    | Some r -> r
    | None ->
        let reqs = poisson_requests w ~seed ~qps:(rate i) ~n:w.w_ladder_requests in
        let r, _ = serve db w ~seed reqs in
        let p99 = r.Report.r_p99_latency and shed = r.Report.r_sheds <> [] in
        Printf.printf "ladder %s: %.1f qps p99 %.6f s shed %d\n" w.w_name (rate i)
          r.Report.r_p99_latency (List.length r.Report.r_sheds);
        Hashtbl.replace runs i (p99, shed);
        (p99, shed)
  in
  let ok i = match probe i with p99, shed -> p99 <= w.w_limit_s && not shed in
  (* invariant: lo passes (or is -1), hi fails (or is [rungs]) *)
  let rec search lo hi =
    if hi - lo <= 1 then (lo, hi)
    else
      let mid = (lo + hi) / 2 in
      if ok mid then search mid hi else search lo mid
  in
  let lo, hi = search (-1) rungs in
  let value =
    if lo < 0 then 0.0
    else if hi >= rungs then rate lo
    else
      let p_lo = fst (probe lo) and p_hi, shed_hi = probe hi in
      (* only a rung that failed on p99 alone bounds the crossing *)
      if shed_hi || p_hi <= p_lo then rate lo
      else
        let t = (log w.w_limit_s -. log p_lo) /. (log p_hi -. log p_lo) in
        rate lo *. ((rate hi /. rate lo) ** Float.min 1.0 t)
  in
  emit "goodput_qps" "qps" value;
  Hashtbl.length runs

(* ---------------- compile sweeps ---------------- *)

(* Host-speed reference: a fixed loop of string hashing, map inserts and a
   sort, allocation-heavy like the back-ends, timed before and after every
   back-end's share of a sweep. On a shared machine the host's speed drifts
   by tens of percent over seconds, and this loop's time tracks it closely
   (its ratio to a sweep stays within a few percent). Compile times are
   scaled by [ref_nominal /. measured], i.e. reported in seconds at the
   speed the loop runs in [ref_nominal] seconds, so that drift between runs
   cancels. The loop is part of the benchmark, not of the engine, so no
   change to the engine can move it. *)
let ref_nominal = 0.005

let reference_loop () =
  let module M = Map.Make (String) in
  let t0 = Timing.now () in
  let h = Hashtbl.create 16 and m = ref M.empty in
  for i = 0 to 5_000 do
    let k = string_of_int ((i * 7919) land 0xFFFF) in
    Hashtbl.replace h k i;
    m := M.add k i !m
  done;
  let l = List.sort compare (List.init 5_000 (fun i -> (i * 104729) land 0xFFFFF)) in
  ignore (Sys.opaque_identity (Hashtbl.length h + M.cardinal !m + List.length l));
  Timing.now () -. t0

(* One sweep: every back-end compiles every query of the set (plan->IR,
   back-end, link). Returns the reference-loop times measured and, per
   back-end and query, the scaled seconds [(whole, (codegen, backend,
   link))]: [whole] is the query's compile span, and while tracing the
   three layer times are the self times of the spans under it. *)
let sweep db queries ~timings =
  let before = ref (reference_loop ()) in
  let refs = ref [ !before ] in
  let r =
    List.map
      (fun b ->
        let timing = List.assq b timings in
        let raw =
          List.map
            (fun (q : Spec.query) ->
              let name = q.Spec.q_name in
              let layers, whole =
                timed ~layer:"bench" ~name:("compile." ^ bname b) ~trace:name (fun () ->
                    let cq, t_ir = codegen db q in
                    let cm, t_be, t_ln = compile db b ~timing cq ~trace:name in
                    Engine.dispose_module db cm;
                    (t_ir, t_be, t_ln))
              in
              let layers =
                if !tracing then
                  let self = self_under_last () in
                  (self "codegen", self "backend", self "link")
                else layers
              in
              (whole, layers))
            queries
        in
        let after = reference_loop () in
        let k = ref_nominal /. ((!before +. after) /. 2.0) in
        before := after;
        refs := after :: !refs;
        ( bname b,
          List.map (fun (w, (a, b, c)) -> (w *. k, (a *. k, b *. k, c *. k))) raw ))
      (backends db)
  in
  (!refs, r)

(* Compile sweeps made even past the deadline, per sweep kind. *)
let min_sweeps = 5

let trace_dir = "perfbench/out"

(* ---------------- main ---------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "qbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload '" ^ !workload ^ "'; one of: "
          ^ String.concat ", " (List.map (fun w -> w.w_name) workloads));
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed N>=0 --seconds S>=1 --trace 0|1";
    exit 2
  end;
  let traced = !trace = 1 in
  let seed = !seed in
  (* set-up, cold every time: four forked children, then this process's
     own; the median is reported, so work moved into set-up shows *)
  let child_setups = List.init 4 (fun _ -> cold_setup_seconds w ~seed) in
  let db, t_setup = Timing.time (fun () -> setup w ~seed) in
  Printf.printf "set-up %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") (child_setups @ [ t_setup ])));
  emit ~kind:Wall "setup_s" "s" (median (t_setup :: child_setups));
  let t_start = Timing.now () in
  tracing := traced;
  let offline_set = w.w_offline (queries_of w.w_data) in
  let served = serve_main db w ~seed in
  let ladder_runs = goodput db w ~seed in
  let offline = offline_pass db offline_set in
  lanes_pass db offline_set ~every:w.w_lanes_every;
  (* compile sweeps until the window closes; in the traced run every other
     sweep is traced (spans plus the back-ends' phase scopes) so the
     difference to the untraced sweeps is the tracing overhead *)
  let bs = backends db in
  let plain = List.map (fun b -> (b, Timing.create ~enabled:false ())) bs in
  let phased = List.map (fun b -> (b, Timing.create ~enabled:true ())) bs in
  let untraced = ref [] and traced_sweeps = ref [] and ref_times = ref [] in
  Gc.compact ();
  let deadline = t_start +. float_of_int !seconds in
  let n = ref 0 in
  while !n < min_sweeps * (if traced then 2 else 1) || Timing.now () < deadline do
    let on = traced && !n mod 2 = 1 in
    tracing := on;
    let t0 = Timing.now () in
    let refs, r = sweep db offline_set ~timings:(if on then phased else plain) in
    let raw = Timing.now () -. t0 -. List.fold_left ( +. ) 0.0 refs in
    let ref_s = median refs in
    ref_times := ref_s :: !ref_times;
    Printf.printf "sweep %d%s %.4f s raw %.4f s ref %.5f s:%s\n" !n
      (if on then " traced" else "")
      (raw *. ref_nominal /. ref_s)
      raw ref_s
      (String.concat ""
         (List.map
            (fun (b, qs) ->
              Printf.sprintf " %s=%.4f" b (List.fold_left (fun a (w, _) -> a +. w) 0.0 qs))
            r));
    if on then traced_sweeps := r :: !traced_sweeps else untraced := r :: !untraced;
    incr n
  done;
  tracing := false;
  (* per back-end: the sum over queries of each query's median over sweeps,
     so one slow sweep of one query (a major GC) does not move the total *)
  let per_backend sweeps f =
    List.map
      (fun b ->
        let n = bname b in
        let per_sweep = List.map (fun r -> Array.of_list (List.assoc n r)) sweeps in
        let nq = List.length offline_set in
        ( n,
          List.fold_left ( +. ) 0.0
            (List.init nq (fun i -> median (List.map (fun a -> f a.(i)) per_sweep))) ))
      bs
  in
  let sum l = List.fold_left (fun a (_, s) -> a +. s) 0.0 l in
  let layers_sum (_, (a, b, c)) = a +. b +. c in
  let compile_s = per_backend !untraced layers_sum in
  List.iter
    (fun (n, c) ->
      let o = List.assoc n offline in
      emit ~kind:Wall ("query_s." ^ n) "s"
        (c +. Engine.cycles_to_seconds o.o_exec_cycles))
    compile_s;
  emit ~kind:Wall "peak_rss_mb" "MB" (peak_rss_mb ());
  emit ~kind:Wall "host.ref_s" "s" (median !ref_times);
  if traced then begin
    let sweeps = !traced_sweeps in
    let codegen_s = per_backend sweeps (fun (_, (a, _, _)) -> a) in
    emit ~kind:Wall "codegen.s" "s" (sum codegen_s /. float_of_int (List.length bs));
    List.iter
      (fun (n, s) -> emit ~kind:Wall ("backend." ^ n ^ ".artifact_s") "s" s)
      (per_backend sweeps (fun (_, (_, b, _)) -> b));
    List.iter
      (fun (n, s) -> if n <> "interpreter" then emit ~kind:Wall ("link." ^ n ^ ".s") "s" s)
      (per_backend sweeps (fun (_, (_, _, c)) -> c));
    (* the top-level Timing scopes of artifact generation, per sweep *)
    let nsw = float_of_int (List.length sweeps) *. median !ref_times /. ref_nominal in
    List.iter
      (fun (b, timing) ->
        List.iter
          (fun (p, secs) ->
            emit ~kind:Wall (Printf.sprintf "phase.%s.%s_s" (bname b) p) "s" (secs /. nsw))
          (Timing.flat timing))
      phased;
    (* accounting, over all back-ends: the traced self times of codegen,
       back-end and link against the compile part of the untraced query_s
       sum (its vm part is simulated execution, the same in both runs). The
       overhead is the traced minus untraced time of the whole compile
       spans, by the same statistic, so gap and overhead differ only by the
       bookkeeping outside the layer spans. *)
    let whole_plain = sum (per_backend !untraced fst) in
    let overhead = sum (per_backend sweeps fst) -. whole_plain in
    emit ~kind:Wall "trace.overhead_s" "s" overhead;
    emit ~kind:Wall "trace.overhead_frac" "frac" (overhead /. whole_plain);
    emit ~kind:Wall "trace.account_gap_s" "s"
      (sum (per_backend sweeps layers_sum) -. sum compile_s);
    let self = self_times !spans in
    List.iter
      (fun l -> emit ~kind:Wall ("self." ^ l ^ "_s") "s" (self l))
      [ "codegen"; "backend"; "link"; "vm"; "morsel"; "serve"; "oracle"; "bench" ];
    emit_int "trace.spans" "count" (List.length !spans);
    (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-%d.json" w.w_name seed) in
    write_chrome_trace path;
    Printf.printf "trace written to %s\n" path
  end;
  let failed = !mismatches + !sheds in
  emit "completed_frac" "frac" (1.0 -. frac failed !attempted);
  (* the detail line: every metric with its kind, plus sample counts *)
  let all = List.rev !metrics in
  let kind_s = function Exact -> "exact" | Wall -> "wall" in
  let item (n, v, u, k) =
    Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s,\"kind\":\"%s\"}" (json_string n) v
      (json_string u) (kind_s k)
  in
  Printf.printf
    "{\"detail\":{\"workload\":%s,\"seed\":%d,\"trace\":%b,\"served_queries\":%d,\"ladder_runs\":%d,\"sweeps\":%d,\"traced_sweeps\":%d,\"metrics\":{%s}}}\n"
    (json_string w.w_name) seed traced served ladder_runs (List.length !untraced)
    (List.length !traced_sweeps)
    (String.concat "," (List.map item all));
  let end_to_end n =
    List.mem n
      [ "setup_s"; "latency_p50_s"; "latency_p99_s"; "first_row_p99_s"; "goodput_qps";
        "completed_frac"; "peak_rss_mb" ]
    || String.length n > 8 && String.sub n 0 8 = "query_s."
  in
  let chosen = List.filter (fun (n, _, _, _) -> end_to_end n <> traced) all in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (!mismatches = 0) !attempted failed
    (String.concat ","
       (List.map
          (fun (n, v, u, _) ->
            Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (json_string n) v (json_string u))
          chosen));
  if !mismatches > 0 then exit 1
