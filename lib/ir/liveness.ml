(** Block-granularity liveness for Umbra IR values, on the shared
    {!Qcomp_support.Block_liveness} solver.

    Backward dataflow over the CFG. Phi inputs are treated as uses at the
    end of the corresponding predecessor (standard SSA liveness), so a phi's
    own block does not keep its inputs live. DirectEmit consumes this to
    approximate live intervals; tests check it on loops and straight-line
    code. Only the sets of blocks reachable from the entry are meaningful. *)

open Qcomp_support

type t = Block_liveness.t = {
  live_in : Bitset.t array;  (** per block, over value ids *)
  live_out : Bitset.t array;
}

let compute (f : Func.t) =
  let nb = Func.num_blocks f in
  let insts b = Func.block_insts f b in
  (* Phi uses contribute to the *predecessor's* live-out. *)
  let phi_uses = Array.make nb [] in
  for b = 0 to nb - 1 do
    Vec.iter
      (fun i ->
        if Func.op f i = Op.Phi then
          List.iter
            (fun (pred, v) -> phi_uses.(pred) <- v :: phi_uses.(pred))
            (Func.phi_incoming f i))
      (insts b)
  done;
  (* The arguments are defined in the entry block, after its instructions
     as far as the backward scan is concerned: they join its kill set, and
     an argument the entry block uses is live into it. *)
  let args = List.init (Func.n_args f) Fun.id in
  let length b =
    Vec.length (insts b) + if b = Func.entry_block && args <> [] then 1 else 0
  in
  let defs_uses b k =
    if k = Vec.length (insts b) then (args, [])
    else
      let i = Vec.get (insts b) k in
      let defs = if Func.ty f i <> Ty.Void then [ i ] else [] in
      match Func.op f i with
      | Op.Phi -> (defs, [])
      | _ ->
          let uses = ref [] in
          Func.iter_operands f i (fun v -> uses := v :: !uses);
          (defs, !uses)
  in
  let succs b =
    let acc = ref [] in
    Func.iter_succs f b (fun s -> acc := s :: !acc);
    !acc
  in
  Block_liveness.solve
    ~exit_uses:(fun b -> phi_uses.(b))
    {
      Block_liveness.nblocks = nb;
      nvregs = Func.num_insts f;
      vreg_base = 0;
      succs;
      length;
      defs_uses;
    }
