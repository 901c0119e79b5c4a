	.section .note.GNU-stack,"",@progbits
	.text
	.globl golden_gemm_u
	.type golden_gemm_u, @function
	.p2align 4
golden_gemm_u:
	push	%r12
	push	%r13
	push	%r14
	push	%r15
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg Mc
	mov	%rsi, 8(%rsp)	# arg Nc
	mov	%rdx, 16(%rsp)	# arg Kc
	mov	%rcx, 24(%rsp)	# arg A
	mov	%r8, 32(%rsp)	# arg B
	mov	%r9, 40(%rsp)	# arg C
	mov	152(%rsp), %rax	# stack arg LDC
	mov	%rax, 48(%rsp)
	mov	(%rsp), %rbx	# home Mc
	mov	16(%rsp), %r10	# home Kc
	mov	24(%rsp), %r14	# home A
	mov	32(%rsp), %r13	# home B
	mov	48(%rsp), %r15	# home LDC
	mov	$0, %r12
	jmp	.LBL0
.LBL1:
	mov	%r12, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r8
	lea	(%r8,%rax,8), %r8
	mov	%r12, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r9
	add	%r15, %rax
	lea	(%r9,%rax,8), %r9
	mov	$0, %rbp
	jmp	.LBL2
.LBL3:
	mov	%r14, %rdi
	mov	%rbp, %rax
	lea	(%rdi,%rax,8), %rdi
	mov	%r12, %rax
	imul	%r10, %rax
	mov	%r13, %rsi
	lea	(%rsi,%rax,8), %rsi
	mov	%r12, %rax
	imul	%r10, %rax
	mov	%r13, %rdx
	add	%r10, %rax
	vxorpd	%xmm24, %xmm24, %xmm24
	vxorpd	%xmm25, %xmm25, %xmm25
	vxorpd	%xmm26, %xmm26, %xmm26
	vxorpd	%xmm27, %xmm27, %xmm27
	vxorpd	%xmm28, %xmm28, %xmm28
	vxorpd	%xmm29, %xmm29, %xmm29
	vxorpd	%xmm30, %xmm30, %xmm30
	vxorpd	%xmm31, %xmm31, %xmm31
	lea	(%rdx,%rax,8), %rdx
	mov	$0, %rcx
	jmp	.LBL4
.LBL5:
	# --- mmUnrolledCOMP ---
	vmovsd	(%rdi), %xmm0	# tmp0 = ptr_A0[0]
	vmovsd	(%rsi), %xmm8	# tmp1 = ptr_B0[0]
	vmovsd	8(%rdi), %xmm1	# tmp3 = ptr_A0[1]
	vmovsd	(%rsi), %xmm9	# tmp4 = ptr_B0[0]
	vmovsd	16(%rdi), %xmm2	# tmp6 = ptr_A0[2]
	vmovsd	(%rsi), %xmm10	# tmp7 = ptr_B0[0]
	vmovsd	24(%rdi), %xmm3	# tmp9 = ptr_A0[3]
	vmovsd	(%rsi), %xmm11	# tmp10 = ptr_B0[0]
	vmovsd	(%rdi), %xmm4	# tmp12 = ptr_A0[0]
	vmovsd	(%rdx), %xmm12	# tmp13 = ptr_B1[0]
	vmovsd	8(%rdi), %xmm5	# tmp15 = ptr_A0[1]
	vmovsd	(%rdx), %xmm13	# tmp16 = ptr_B1[0]
	vmovsd	16(%rdi), %xmm6	# tmp18 = ptr_A0[2]
	vmovsd	(%rdx), %xmm14	# tmp19 = ptr_B1[0]
	vmovsd	24(%rdi), %xmm7	# tmp21 = ptr_A0[3]
	vmovsd	(%rdx), %xmm15	# tmp22 = ptr_B1[0]
	vfmadd231sd	%xmm0, %xmm8, %xmm24	# res_u0_u0 += tmp0*tmp1
	vfmadd231sd	%xmm1, %xmm9, %xmm25	# res_u0_u1 += tmp3*tmp4
	vfmadd231sd	%xmm2, %xmm10, %xmm26	# res_u0_u2 += tmp6*tmp7
	vfmadd231sd	%xmm3, %xmm11, %xmm27	# res_u0_u3 += tmp9*tmp10
	vfmadd231sd	%xmm4, %xmm12, %xmm28	# res_u1_u0 += tmp12*tmp13
	vfmadd231sd	%xmm5, %xmm13, %xmm29	# res_u1_u1 += tmp15*tmp16
	vfmadd231sd	%xmm6, %xmm14, %xmm30	# res_u1_u2 += tmp18*tmp19
	vfmadd231sd	%xmm7, %xmm15, %xmm31	# res_u1_u3 += tmp21*tmp22
	add	$8, %rsi	# ptr_B0 += 1
	mov	%rbx, %rax
	add	$8, %rdx	# ptr_B1 += 1
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	add	$1, %rcx
.LBL4:
	cmp	%r10, %rcx
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	vmovsd	(%r8), %xmm16	# tmp24 = ptr_C0[0]
	vaddsd	%xmm16, %xmm24, %xmm24
	vmovsd	%xmm24, (%r8)	# ptr_C0[0] = res_u0_u0
	vmovsd	8(%r8), %xmm17	# tmp25 = ptr_C0[1]
	vaddsd	%xmm17, %xmm25, %xmm25
	vmovsd	%xmm25, 8(%r8)	# ptr_C0[1] = res_u0_u1
	vmovsd	16(%r8), %xmm18	# tmp26 = ptr_C0[2]
	vaddsd	%xmm18, %xmm26, %xmm26
	vmovsd	%xmm26, 16(%r8)	# ptr_C0[2] = res_u0_u2
	vmovsd	24(%r8), %xmm19	# tmp27 = ptr_C0[3]
	vaddsd	%xmm19, %xmm27, %xmm27
	vmovsd	%xmm27, 24(%r8)	# ptr_C0[3] = res_u0_u3
	# --- mmUnrolledSTORE ---
	vmovsd	(%r9), %xmm20	# tmp28 = ptr_C1[0]
	vaddsd	%xmm20, %xmm28, %xmm28
	vmovsd	%xmm28, (%r9)	# ptr_C1[0] = res_u1_u0
	vmovsd	8(%r9), %xmm21	# tmp29 = ptr_C1[1]
	vaddsd	%xmm21, %xmm29, %xmm29
	vmovsd	%xmm29, 8(%r9)	# ptr_C1[1] = res_u1_u1
	vmovsd	16(%r9), %xmm22	# tmp30 = ptr_C1[2]
	vaddsd	%xmm22, %xmm30, %xmm30
	vmovsd	%xmm30, 16(%r9)	# ptr_C1[2] = res_u1_u2
	vmovsd	24(%r9), %xmm23	# tmp31 = ptr_C1[3]
	vaddsd	%xmm23, %xmm31, %xmm31
	vmovsd	%xmm31, 24(%r9)	# ptr_C1[3] = res_u1_u3
	add	$32, %r8	# ptr_C0 += 4
	add	$32, %r9	# ptr_C1 += 4
	add	$4, %rbp
.LBL2:
	cmp	%rbx, %rbp
	jl	.LBL3
	add	$2, %r12
.LBL0:
	mov	8(%rsp), %rax
	cmp	%rax, %r12
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r15
	pop	%r14
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size golden_gemm_u, .-golden_gemm_u
