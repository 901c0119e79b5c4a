	.section .note.GNU-stack,"",@progbits
	.text
	.globl dgemm_kernel
	.type dgemm_kernel, @function
	.p2align 4
dgemm_kernel:
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
	mov	8(%rsp), %rbp	# home Nc
	mov	16(%rsp), %r12	# home Kc
	mov	48(%rsp), %r15	# home LDC
	mov	$0, %r14
	jmp	.LBL0
.LBL1:
	mov	%r14, %rax
	imul	%r15, %rax
	mov	40(%rsp), %rcx
	lea	(%rcx,%rax,8), %rcx
	mov	%r14, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r8
	add	%r15, %rax
	lea	(%r8,%rax,8), %r8
	mov	%r14, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r9
	mov	%rax, 56(%rsp)
	mov	$2, %rax
	imul	%r15, %rax
	add	56(%rsp), %rax
	lea	(%r9,%rax,8), %r9
	mov	%r14, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r10
	mov	%rax, 56(%rsp)
	mov	$3, %rax
	imul	%r15, %rax
	add	56(%rsp), %rax
	lea	(%r10,%rax,8), %r10
	mov	$0, %r13
	jmp	.LBL2
.LBL3:
	mov	24(%rsp), %rdi
	mov	%r13, %rax
	lea	(%rdi,%rax,8), %rdi
	mov	32(%rsp), %rsi
	mov	%r14, %rax
	vxorpd	%ymm8, %ymm8, %ymm8
	vxorpd	%ymm9, %ymm9, %ymm9
	vxorpd	%ymm10, %ymm10, %ymm10
	vxorpd	%ymm11, %ymm11, %ymm11
	lea	(%rsi,%rax,8), %rsi
	mov	$0, %rdx
	jmp	.LBL4
.LBL5:
	prefetcht0	256(%rdi)
	prefetcht0	256(%rsi)
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %ymm0	# Vld ptr_A0[0..3]
	vbroadcastsd	(%rsi), %ymm4	# Vdup ptr_B0[0]
	vbroadcastsd	8(%rsi), %ymm5	# Vdup ptr_B0[1]
	vbroadcastsd	16(%rsi), %ymm6	# Vdup ptr_B0[2]
	vbroadcastsd	24(%rsi), %ymm7	# Vdup ptr_B0[3]
	vfmaddpd	%ymm8, %ymm4, %ymm0, %ymm8	# acc(res_u0_u0..) += A*ptr_B0[0]
	vfmaddpd	%ymm9, %ymm5, %ymm0, %ymm9	# acc(res_u1_u0..) += A*ptr_B0[1]
	vfmaddpd	%ymm10, %ymm6, %ymm0, %ymm10	# acc(res_u2_u0..) += A*ptr_B0[2]
	vfmaddpd	%ymm11, %ymm7, %ymm0, %ymm11	# acc(res_u3_u0..) += A*ptr_B0[3]
	mov	%rbx, %rax
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	mov	%rbp, %rax
	lea	(%rsi,%rax,8), %rsi	# ptr_B0 += ...
	add	$1, %rdx
.LBL4:
	cmp	%r12, %rdx
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	vmovupd	(%rcx), %ymm12	# Vld ptr_C0[0..3]
	vaddpd	%ymm8, %ymm12, %ymm12
	vmovupd	%ymm12, (%rcx)	# Vst ptr_C0[0..3]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r8), %ymm13	# Vld ptr_C1[0..3]
	vaddpd	%ymm9, %ymm13, %ymm13
	vmovupd	%ymm13, (%r8)	# Vst ptr_C1[0..3]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r9), %ymm14	# Vld ptr_C2[0..3]
	vaddpd	%ymm10, %ymm14, %ymm14
	vmovupd	%ymm14, (%r9)	# Vst ptr_C2[0..3]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r10), %ymm15	# Vld ptr_C3[0..3]
	vaddpd	%ymm11, %ymm15, %ymm15
	vmovupd	%ymm15, (%r10)	# Vst ptr_C3[0..3]
	add	$32, %rcx	# ptr_C0 += 4
	add	$32, %r8	# ptr_C1 += 4
	add	$32, %r9	# ptr_C2 += 4
	add	$32, %r10	# ptr_C3 += 4
	add	$4, %r13
.LBL2:
	cmp	%rbx, %r13
	jl	.LBL3
	add	$4, %r14
.LBL0:
	cmp	%rbp, %r14
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
	.size dgemm_kernel, .-dgemm_kernel
