(* Golden artifact digests: for every TPC-H-like and TPC-DS-like query, the
   MD5 of the relocatable artifact (code bytes, symbol table, relocation
   list) that each register-allocating back-end, DirectEmit and stencil emit,
   compared line for line against test/golden/artifacts.txt. Compilation
   is deterministic,
   so a change to instruction selection, register allocation or emission
   that alters a single byte of any query shows up here; a pure speed-up
   of a compiler pass must leave the file untouched.

   On a mismatch the test writes the new digests next to the test binary
   as [artifacts.actual] (in _build/default/test) and fails; copy it over
   test/golden/artifacts.txt only when the code change is intended. *)

open Qcomp_engine
open Qcomp_backend

let reloc_kind = function
  | Artifact.Plt32 -> "plt32"
  | Artifact.Abs64 -> "abs64"
  | Artifact.Param i -> Printf.sprintf "param%d" i
  | Artifact.Param_hi i -> Printf.sprintf "param_hi%d" i

let digest (a : Artifact.t) =
  let b = Buffer.create (Bytes.length a.Artifact.a_text + 1024) in
  Buffer.add_bytes b a.Artifact.a_text;
  List.iter
    (fun (s : Artifact.symbol) ->
      Printf.bprintf b "\nsym %s %d %d %b" s.Artifact.s_name s.Artifact.s_off
        s.Artifact.s_size s.Artifact.s_defined)
    a.Artifact.a_syms;
  List.iter
    (fun (r : Artifact.reloc) ->
      Printf.bprintf b "\nreloc %d %s %s" r.Artifact.r_off r.Artifact.r_sym
        (reloc_kind r.Artifact.r_kind))
    a.Artifact.a_relocs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (target, back-ends) pairs under test: the x86-64 back-ends that run a
   register allocator or a liveness analysis, the copy-and-patch stencil
   back-end, and the greedy allocator once more on AArch64 *)
let configs =
  let open Qcomp_vm in
  [
    ( Target.x64,
      [
        Engine.cranelift;
        Engine.llvm_cheap;
        Engine.llvm_opt;
        Engine.gcc;
        Engine.directemit;
        Engine.stencil;
      ] );
    (Target.a64, [ Engine.llvm_opt ]);
  ]

let workloads = [ ("tpch", Experiments.Tpch); ("tpcds", Experiments.Tpcds) ]

let render () =
  let out = Buffer.create 65536 in
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  List.iter
    (fun (target, backends) ->
      List.iter
        (fun (wname, w) ->
          let db = Experiments.make_db ~mem_size:(1 lsl 26) target w ~sf:1 in
          List.iter
            (fun (q : Qcomp_workloads.Spec.query) ->
              let m =
                (Engine.plan_to_ir db ~name:q.Qcomp_workloads.Spec.q_name
                   q.Qcomp_workloads.Spec.q_plan)
                  .Qcomp_codegen.Codegen.modul
              in
              List.iter
                (fun b ->
                  match Backend.compile_artifact b with
                  | None -> ()
                  | Some gen ->
                      let a =
                        gen ~timing ~target:db.Engine.target
                          ~registry:db.Engine.registry m
                      in
                      Printf.bprintf out "%s %s %s %s %s\n"
                        target.Qcomp_vm.Target.name (Backend.name b) wname
                        q.Qcomp_workloads.Spec.q_name (digest a))
                backends)
            (Experiments.queries_of w))
        workloads)
    configs;
  Buffer.contents out

let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

let golden_test () =
  let expected = read_file (Filename.concat "golden" "artifacts.txt") in
  let got = render () in
  if not (String.equal expected got) then begin
    Out_channel.with_open_bin "artifacts.actual" (fun oc -> output_string oc got);
    let el = String.split_on_char '\n' expected
    and gl = String.split_on_char '\n' got in
    let diff =
      List.filter (fun l -> not (List.mem l el)) gl |> List.filteri (fun i _ -> i < 5)
    in
    Alcotest.failf
      "artifact digests differ from golden/artifacts.txt (new output in \
       artifacts.actual); first new lines:\n%s"
      (String.concat "\n" diff)
  end

let suite =
  [
    Alcotest.test_case
      "golden artifact digests: TPC-H + TPC-DS, register-allocating back-ends"
      `Quick golden_test;
  ]
