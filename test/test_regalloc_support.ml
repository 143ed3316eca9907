(* The register allocators' shared pieces against brute-force references:
   the interference union's conflict and eviction queries against an
   all-pairs overlap check, and the gen/kill block-liveness solver and
   range builder against the per-instruction fixpoint and the per-block
   range sweep they replaced. *)

open Qcomp_support

let check = Alcotest.check

let prop ?(count = 300) name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print gen f)

(* ---------------- interference union ---------------- *)

let overlaps (s1, e1) (s2, e2) = s1 < e2 && s2 < e1

(* Build a union the way the allocators do: every fixed segment first, then
   each virtual register whose segments are all free, in order. Returns
   the union and the model: (segment, owner) pairs, owner -1 = fixed. *)
let build fixed vregs =
  let u = Interference.create () in
  List.iter (fun (s, e) -> Interference.add_fixed u s e) fixed;
  let model = ref (List.map (fun seg -> (seg, -1)) fixed) in
  List.iteri
    (fun v segs ->
      if
        List.for_all
          (fun seg -> not (List.exists (fun (o, _) -> overlaps o seg) !model))
          segs
      then begin
        List.iter (fun (s, e) -> Interference.add u v s e) segs;
        model := List.map (fun seg -> (seg, v)) segs @ !model
      end)
    vregs;
  (u, !model)

let brute_conflicts model seg = List.exists (fun (o, _) -> overlaps o seg) model

let brute_evictees model segs ~evictable =
  let hit =
    List.filter (fun (o, _) -> List.exists (overlaps o) segs) model
    |> List.map snd
  in
  if List.exists (fun o -> o < 0 || not (evictable o)) hit then None
  else Some (List.sort_uniq Int.compare hit)

(* a segment list of one register: sorted, disjoint, non-empty *)
let gen_segs =
  QCheck2.Gen.(
    map
      (fun cuts ->
        let rec pair = function
          | a :: b :: rest when a < b -> (a, b) :: pair rest
          | _ :: rest -> pair rest
          | [] -> []
        in
        pair (List.sort_uniq Int.compare cuts))
      (list_size (int_range 0 6) (int_bound 120)))

let gen_seg =
  QCheck2.Gen.(map2 (fun s l -> (s, s + 1 + l)) (int_bound 120) (int_bound 30))

(* fixed segments overlap freely: argument reservations with call clobbers
   inside them, several reservations of one register *)
let gen_union =
  QCheck2.Gen.(
    triple (list_size (int_range 0 8) gen_seg) (list_size (int_range 0 10) gen_segs)
      gen_segs)

let print_union (fixed, vregs, q) =
  let segs l = String.concat ";" (List.map (fun (s, e) -> Printf.sprintf "[%d,%d)" s e) l) in
  Printf.sprintf "fixed %s | vregs %s | query %s" (segs fixed)
    (String.concat " " (List.map segs vregs))
    (segs q)

let union_cases =
  [
    Alcotest.test_case "clobber inside a reservation still conflicts" `Quick
      (fun () ->
        (* the last segment starting before 24 is the clobber [20,22), which
           ends before 24; the reservation [10,30) still covers it *)
        let u = Interference.create () in
        Interference.add_fixed u 10 30;
        Interference.add_fixed u 20 22;
        check Alcotest.bool "[24,26) conflicts" true (Interference.conflicts u 24 26);
        check Alcotest.bool "[30,32) free" false (Interference.conflicts u 30 32);
        check Alcotest.bool "[8,10) free" false (Interference.conflicts u 8 10);
        check
          Alcotest.(option (list int))
          "not evictable" None
          (Interference.evictees u [ (24, 26) ] ~evictable:(fun _ -> true)));
    Alcotest.test_case "fixed segments merge, touching ones too" `Quick (fun () ->
        let u = Interference.create () in
        Interference.add_fixed u 20 22;
        Interference.add_fixed u 30 40;
        Interference.add_fixed u 10 30;
        Interference.add_fixed u 40 44;
        check Alcotest.bool "[43,50)" true (Interference.conflicts u 43 50);
        check Alcotest.bool "[44,50)" false (Interference.conflicts u 44 50);
        (* unmerged, the segment ending first after 20 would be [30,32),
           which starts after the query *)
        let u = Interference.create () in
        Interference.add_fixed u 10 40;
        Interference.add_fixed u 30 32;
        check Alcotest.bool "[20,25) inside [10,40)" true (Interference.conflicts u 20 25));
    Alcotest.test_case "evictees: sorted owners, stop at the heavier" `Quick
      (fun () ->
        let u = Interference.create () in
        Interference.add u 7 0 4;
        Interference.add u 3 4 8;
        Interference.add u 7 10 12;
        Interference.add u 9 20 30;
        check
          Alcotest.(option (list int))
          "3 and 7" (Some [ 3; 7 ])
          (Interference.evictees u [ (2, 11) ] ~evictable:(fun _ -> true));
        check
          Alcotest.(option (list int))
          "9 unevictable" None
          (Interference.evictees u [ (2, 11); (25, 26) ] ~evictable:(fun o -> o <> 9));
        check
          Alcotest.(option (list int))
          "nothing there" (Some [])
          (Interference.evictees u [ (12, 20) ] ~evictable:(fun _ -> false));
        Interference.remove u 4 8;
        check Alcotest.bool "freed" false (Interference.conflicts u 4 8));
    Alcotest.test_case "fixed over a virtual register segment is refused" `Quick
      (fun () ->
        let u = Interference.create () in
        Interference.add u 0 10 20;
        Interference.add_fixed u 20 24;
        Interference.add_fixed u 4 10;
        Alcotest.check_raises "overlap"
          (Invalid_argument "Interference.add_fixed: overlaps a virtual register segment")
          (fun () -> Interference.add_fixed u 18 21));
  ]

let union_props =
  [
    prop "conflicts = all-pairs overlap" gen_union print_union (fun (fixed, vregs, q) ->
        let u, model = build fixed vregs in
        List.for_all
          (fun (s, e) -> Interference.conflicts u s e = brute_conflicts model (s, e))
          q);
    prop "evictees = all-pairs overlap" gen_union print_union (fun (fixed, vregs, q) ->
        let u, model = build fixed vregs in
        let evictable o = o mod 3 <> 0 in
        Interference.evictees u q ~evictable = brute_evictees model q ~evictable
        && Interference.evictees u q ~evictable:(fun _ -> true)
           = brute_evictees model q ~evictable:(fun _ -> true));
    prop "evict, re-add: queries still exact" gen_union print_union
      (fun (fixed, vregs, q) ->
        (* evict every register overlapping q, occupy q, query again *)
        let u, model = build fixed vregs in
        match Interference.evictees u q ~evictable:(fun _ -> true) with
        | None -> true
        | Some owners ->
            let model =
              List.filter
                (fun ((s, e), o) ->
                  if List.mem o owners then (Interference.remove u s e; false)
                  else true)
                model
            in
            List.iter (fun (s, e) -> Interference.add u 99 s e) q;
            let model = List.map (fun seg -> (seg, 99)) q @ model in
            List.for_all
              (fun s ->
                List.for_all
                  (fun l ->
                    Interference.conflicts u s (s + l) = brute_conflicts model (s, s + l))
                  [ 1; 3; 17 ])
              (List.init 150 Fun.id));
  ]

(* ---------------- block liveness ---------------- *)

let vreg_base = 32

(* A random function: per block, successors (any block, so loops and self
   edges occur) and instructions as (defs, uses) over physical registers
   below [vreg_base] and virtual ones above, plus registers used on leaving
   the block (as SSA phi inputs are). *)
type fn = {
  nv : int;
  blocks : (int list * (int list * int list) array) array;
  exits : int list array;
}

let gen_fn =
  QCheck2.Gen.(
    int_range 1 12 >>= fun nv ->
    int_range 1 7 >>= fun nb ->
    let reg = oneof [ int_bound 31; map (( + ) vreg_base) (int_bound (nv - 1)) ] in
    let inst = pair (list_size (int_bound 2) reg) (list_size (int_bound 3) reg) in
    let block =
      pair (list_size (int_bound 2) (int_bound (nb - 1))) (array_size (int_bound 6) inst)
    in
    map2
      (fun blocks exits -> { nv; blocks; exits })
      (array_size (return nb) block)
      (array_size (return nb) (list_size (int_bound 2) reg)))

let print_fn f =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun b (succs, insts) ->
            Printf.sprintf "b%d -> [%s] exit-uses [%s]: %s" b
              (String.concat "," (List.map string_of_int succs))
              (String.concat "," (List.map string_of_int f.exits.(b)))
              (String.concat "; "
                 (Array.to_list
                    (Array.map
                       (fun (d, u) ->
                         Printf.sprintf "%s <- %s"
                           (String.concat "," (List.map string_of_int d))
                           (String.concat "," (List.map string_of_int u)))
                       insts))))
          f.blocks))

let code f =
  {
    Block_liveness.nblocks = Array.length f.blocks;
    nvregs = f.nv;
    vreg_base;
    succs = (fun b -> fst f.blocks.(b));
    length = (fun b -> Array.length (snd f.blocks.(b)));
    defs_uses = (fun b k -> (snd f.blocks.(b)).(k));
  }

(* the per-instruction fixpoint both allocators used to run, its live-out
   sets seeded with the exit uses *)
let reference_liveness ~exits f =
  let nb = Array.length f.blocks in
  let live_in = Array.init nb (fun _ -> Bitset.create f.nv) in
  let live_out = Array.init nb (fun _ -> Bitset.create f.nv) in
  if exits then
    Array.iteri
      (fun b l ->
        List.iter (fun r -> if r >= vreg_base then Bitset.add live_out.(b) (r - vreg_base)) l)
      f.exits;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let succs, insts = f.blocks.(b) in
      List.iter (fun s -> ignore (Bitset.union_into ~src:live_in.(s) live_out.(b))) succs;
      let live = Bitset.copy live_out.(b) in
      for k = Array.length insts - 1 downto 0 do
        let defs, uses = insts.(k) in
        List.iter (fun d -> if d >= vreg_base then Bitset.remove live (d - vreg_base)) defs;
        List.iter (fun u -> if u >= vreg_base then Bitset.add live (u - vreg_base)) uses
      done;
      if not (Bitset.equal live live_in.(b)) then begin
        ignore (Bitset.union_into ~src:live live_in.(b));
        changed := true
      end
    done
  done;
  (live_in, live_out)

let block_start f =
  let nb = Array.length f.blocks in
  let a = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    a.(b + 1) <- a.(b) + Array.length (snd f.blocks.(b))
  done;
  fun b k -> 2 * (a.(b) + k)

(* the range sweep both allocators used to run: a fresh [range_end] per
   block, closed by a loop over every register *)
let reference_ranges f live_out point =
  let ranges = Array.make f.nv [] in
  let add_range v s e = if e > s then ranges.(v) <- (s, e) :: ranges.(v) in
  Array.iteri
    (fun b (_, insts) ->
      let n = Array.length insts in
      let range_end = Array.make f.nv (-1) in
      Bitset.iter (fun v -> range_end.(v) <- point b n) live_out.(b);
      for k = n - 1 downto 0 do
        let defs, uses = insts.(k) in
        let p = point b k in
        List.iter
          (fun d ->
            if d >= vreg_base then begin
              let v = d - vreg_base in
              if range_end.(v) >= 0 then begin
                add_range v (p + 1) range_end.(v);
                range_end.(v) <- -1
              end
              else add_range v (p + 1) (p + 2)
            end)
          defs;
        List.iter
          (fun u ->
            if u >= vreg_base then begin
              let v = u - vreg_base in
              if range_end.(v) < 0 then range_end.(v) <- p + 1
            end)
          uses
      done;
      for v = 0 to f.nv - 1 do
        if range_end.(v) >= 0 then add_range v (point b 0) range_end.(v)
      done)
    f.blocks;
  ranges

let liveness_props =
  [
    prop ~count:500 "gen/kill solver = per-instruction fixpoint" gen_fn print_fn (fun f ->
        let same live (live_in, live_out) =
          Array.for_all2 Bitset.equal live.Block_liveness.live_in live_in
          && Array.for_all2 Bitset.equal live.Block_liveness.live_out live_out
        in
        same (Block_liveness.solve (code f)) (reference_liveness ~exits:false f)
        && same
             (Block_liveness.solve ~exit_uses:(fun b -> f.exits.(b)) (code f))
             (reference_liveness ~exits:true f));
    prop ~count:500 "ranges = per-block sweep over every register" gen_fn print_fn
      (fun f ->
        let c = code f in
        let live = Block_liveness.solve c in
        let point = block_start f in
        let refs = ref 0 in
        let ranges = Block_liveness.ranges c live ~point ~on_ref:(fun _ _ -> incr refs) in
        let vreg_refs =
          Array.fold_left
            (fun n (_, insts) ->
              Array.fold_left
                (fun n (d, u) ->
                  n + List.length (List.filter (fun r -> r >= vreg_base) (d @ u)))
                n insts)
            0 f.blocks
        in
        ranges = reference_ranges f live.Block_liveness.live_out point
        && !refs = vreg_refs);
  ]

(* ---------------- IR liveness ---------------- *)

(* The IR-level solver as it stood before it ran on Block_liveness: gen and
   defs by a forward scan (phi inputs go to the predecessor's live-out,
   arguments are defined in the entry block), iterated in reverse RPO over
   the reachable blocks. *)
let reference_ir_liveness (f : Qcomp_ir.Func.t) =
  let open Qcomp_ir in
  let nb = Func.num_blocks f and nv = Func.num_insts f in
  let live_in = Array.init nb (fun _ -> Bitset.create nv) in
  let live_out = Array.init nb (fun _ -> Bitset.create nv) in
  let defs = Array.init nb (fun _ -> Bitset.create nv) in
  let gen = Array.init nb (fun _ -> Bitset.create nv) in
  let phi_uses = Array.make nb [] in
  for b = 0 to nb - 1 do
    Vec.iter
      (fun i ->
        (match Func.op f i with
        | Op.Phi ->
            List.iter
              (fun (pred, v) -> if v >= 0 then phi_uses.(pred) <- v :: phi_uses.(pred))
              (Func.phi_incoming f i)
        | _ ->
            Func.iter_operands f i (fun v ->
                if v >= 0 && not (Bitset.mem defs.(b) v) then Bitset.add gen.(b) v));
        if Func.ty f i <> Ty.Void then Bitset.add defs.(b) i)
      (Func.block_insts f b)
  done;
  for a = 0 to Func.n_args f - 1 do
    Bitset.add defs.(Func.entry_block) a
  done;
  let order = Graph.Func_analysis.rpo f in
  let changed = ref true and tmp = Bitset.create nv in
  while !changed do
    changed := false;
    for oi = Array.length order - 1 downto 0 do
      let b = order.(oi) in
      Bitset.clear tmp;
      Func.iter_succs f b (fun s -> ignore (Bitset.union_into ~src:live_in.(s) tmp));
      List.iter (fun v -> Bitset.add tmp v) phi_uses.(b);
      if Bitset.union_into ~src:tmp live_out.(b) then changed := true;
      Bitset.clear tmp;
      ignore (Bitset.union_into ~src:live_out.(b) tmp);
      Bitset.iter (fun v -> Bitset.remove tmp v) defs.(b);
      ignore (Bitset.union_into ~src:gen.(b) tmp);
      if Bitset.union_into ~src:tmp live_in.(b) then changed := true
    done
  done;
  (order, live_in, live_out)

let ir_cases =
  [
    Alcotest.test_case "IR liveness = reference on every workload function" `Quick
      (fun () ->
        let open Qcomp_engine in
        List.iter
          (fun w ->
            let db = Experiments.make_db ~mem_size:(1 lsl 26) Qcomp_vm.Target.x64 w ~sf:1 in
            List.iter
              (fun (q : Qcomp_workloads.Spec.query) ->
                let m =
                  (Engine.plan_to_ir db ~name:q.Qcomp_workloads.Spec.q_name
                     q.Qcomp_workloads.Spec.q_plan)
                    .Qcomp_codegen.Codegen.modul
                in
                Vec.iter
                  (fun f ->
                    let lv = Qcomp_ir.Liveness.compute f in
                    let order, live_in, live_out = reference_ir_liveness f in
                    Array.iter
                      (fun b ->
                        if
                          not
                            (Bitset.equal lv.Qcomp_ir.Liveness.live_in.(b) live_in.(b)
                            && Bitset.equal lv.Qcomp_ir.Liveness.live_out.(b) live_out.(b))
                        then
                          Alcotest.failf "%s: %s block %d differs" q.Qcomp_workloads.Spec.q_name
                            f.Qcomp_ir.Func.name b)
                      order)
                  m.Qcomp_ir.Func.funcs)
              (Experiments.queries_of w))
          [ Experiments.Tpch; Experiments.Tpcds ]);
  ]

let suite = union_cases @ union_props @ liveness_props @ ir_cases
