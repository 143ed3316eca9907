(* Golden event-driver reports: fixed-seed [Server.pp_report ~per_query:true]
   output for every serving mode, compared byte for byte against the
   fixtures in test/golden/. The discrete-event driver is deterministic,
   so any change to how a query is admitted, compiled, bound, swapped or
   charged shows up here as a diff.

   On a mismatch the test writes the new output next to the test binary
   as [<name>.actual] (in _build/default/test) and fails; copy it over
   test/golden/<name>.txt only when the change is intended. *)

open Qcomp_engine
open Qcomp_server
open Qcomp_plan
open Qcomp_storage

let schema =
  Schema.make "t"
    [ ("a", Schema.Int64); ("g", Schema.Int32); ("d", Schema.Decimal 2);
      ("s", Schema.Str) ]

let small_db ?(rows = 1024) () =
  let db = Engine.create_db ~mem_size:(1 lsl 26) Qcomp_vm.Target.x64 in
  let _ =
    Engine.add_table db schema ~rows ~seed:123L
      [| Datagen.Uniform (-50, 50); Datagen.Uniform (0, 5);
         Datagen.DecimalRange (-300, 300); Datagen.Words (Datagen.word_pool, 1) |]
  in
  db

let tpch_db () =
  Experiments.make_db ~mem_size:(1 lsl 28) Qcomp_vm.Target.x64 Experiments.Tpch
    ~sf:1

let scan = Algebra.Scan { table = "t"; filter = None }

let small_plans =
  [
    ("scan", scan);
    ("filter", Algebra.Filter { input = scan; pred = Expr.(col 1 <% int32 3) });
    ( "agg",
      Algebra.Group_by
        {
          input = scan;
          keys = [ Expr.col 1 ];
          aggs =
            [ Algebra.Count_star; Algebra.Sum (Expr.col 0); Algebra.Avg (Expr.col 2) ];
        } );
    ( "sort",
      Algebra.Order_by
        { input = scan; keys = [ (Expr.col 0, Algebra.Desc) ]; limit = Some 10 } );
    ( "join",
      Algebra.Hash_join
        {
          build = Algebra.Filter { input = scan; pred = Expr.(col 1 =% int32 2) };
          probe = scan;
          build_keys = [ Expr.col 1 ];
          probe_keys = [ Expr.col 1 ];
        } );
  ]

let tpch_plans =
  List.filteri
    (fun i _ -> i < 8)
    (List.map
       (fun (q : Qcomp_workloads.Spec.query) ->
         (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
       Qcomp_workloads.Tpch.queries)

let small_stream = Server.make_stream ~seed:7L ~n:16 small_plans
let tpch_stream = Server.make_stream ~seed:11L ~n:12 tpch_plans

let requests ~seed ~n ~tenants arrival =
  List.map
    (fun (name, plan, at, tenant) ->
      { Server.rq_name = name; rq_plan = plan; rq_arrival = at; rq_tenant = tenant })
    (Qcomp_workloads.Trafficgen.stream ~arrival ~seed ~n ~tenants small_plans)

let cfg = { Server.default_config with Server.morsel = 64 }
let render r = Format.asprintf "%a" (Server.pp_report ~per_query:true) r

(* (fixture name, thunk producing the report text) *)
let scenarios =
  [
    ( "static_stencil",
      fun () ->
        render
          (Server.run (small_db ())
             { cfg with Server.mode = Server.Static Engine.stencil }
             small_stream) );
    ( "cached",
      (* all arrivals at t=0: identical plans race for one cache entry *)
      fun () ->
        render
          (Server.run (small_db ())
             { cfg with Server.mode = Server.Cached; Server.mean_gap_s = 0.0 }
             small_stream) );
    ( "tiered",
      fun () ->
        render
          (Server.run (tpch_db ())
             {
               cfg with
               Server.mode = Server.Tiered;
               Server.morsel = 256;
               Server.mean_gap_s = 0.0001;
             }
             tpch_stream) );
    ( "tiered_reopt",
      fun () ->
        render
          (Server.run (tpch_db ())
             {
               cfg with
               Server.mode = Server.Tiered;
               Server.reopt = true;
               Server.morsel = 256;
               Server.mean_gap_s = 0.0001;
             }
             tpch_stream) );
    ( "zipf_param",
      fun () ->
        let stream =
          List.map
            (fun (q : Qcomp_workloads.Spec.query) ->
              (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
            (Qcomp_workloads.Paramgen.stream ~seed:5L ~n:24)
        in
        render (Server.run (tpch_db ()) { cfg with Server.morsel = 256 } stream)
    );
    ( "intra2",
      fun () ->
        render
          (Server.run (tpch_db ())
             { cfg with Server.intra = 2; Server.morsel = 256 }
             tpch_stream) );
    ( "admission_shed",
      fun () ->
        render
          (Server.run_requests (small_db ())
             { cfg with Server.admission_cap = Some 3; Server.tenants = 2 }
             (requests ~seed:42L ~n:40 ~tenants:2
                (Qcomp_workloads.Trafficgen.Burst
                   { qps = 100_000.0; burst = 16; idle_s = 1e-5 }))) );
    ( "tenants3",
      fun () ->
        render
          (Server.run_requests (small_db ())
             { cfg with Server.tenants = 3 }
             (requests ~seed:9L ~n:30 ~tenants:3
                (Qcomp_workloads.Trafficgen.Poisson { qps = 20_000.0 }))) );
    ( "warm_cache",
      (* the second run on a caller-supplied cache the first run warmed *)
      fun () ->
        let db = small_db () in
        let cache = Code_cache.create ~capacity:4 in
        let c = { cfg with Server.cache_capacity = 4 } in
        ignore (Server.run ~cache db c small_stream);
        render (Server.run ~cache db { c with Server.seed = 43L } small_stream)
    );
  ]

let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

let golden_test (name, produce) =
  Alcotest.test_case ("golden event-driver report: " ^ name) `Quick (fun () ->
      let expected = read_file (Filename.concat "golden" (name ^ ".txt")) in
      let got = produce () in
      if not (String.equal expected got) then begin
        let actual = name ^ ".actual" in
        Out_channel.with_open_bin actual (fun oc -> output_string oc got);
        Alcotest.failf "report differs from golden/%s.txt (new output in %s)"
          name actual
      end)

let suite = List.map golden_test scenarios
